"""LP text: the writer's dialect, its determinism, and HiGHS reading it back.

The read-back tests use HiGHS's own LP reader through scipy's private
binding ``scipy.optimize._highspy._core``, an independent parser of the
dialect.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from scipy.optimize._highspy._core import (
    HighsStatus,
    HighsVarType,
    ObjSense,
    _Highs,
)

from bruteforce import lp_text_by_rows
from conftest import (
    fixture_model,
    perturbed,
    raw_sweep_instance,
    sweep_instance,
    three_role_instance,
)
from tollgate.bigm import compute_bigm
from tollgate.enumeration import enumerate_paths
from tollgate.formulations import FORMULATIONS, assemble_hybrid
from tollgate.lp_format import CHUNK_ROWS, lp_name_map, write_lp
from tollgate.model_ir import ModelIR
from tollgate.solver import ScipyBackend


def bracketed_model():
    m = ModelIR("bracketed")
    m.add_variable("T[3]", lower=0, upper=7)
    m.add_variable("x[0,3]", binary=True, upper=1)
    m.add_variable("lam[0,2]", lower=None)
    m.add_constraint(
        "da1[0,3]", [(1, "lam[0,2]"), (-1, "T[3]")], "<=", Fraction(5, 2)
    )
    m.add_constraint(
        "directa1[0,3]", [(1, "T[3]"), (-7, "x[0,3]")], "<=", 0
    )
    m.add_objective_term(1, "T[3]")
    return m


def test_writer_is_deterministic():
    assert write_lp(bracketed_model()) == write_lp(bracketed_model())


def test_name_map_decodes_every_identifier():
    m = bracketed_model()
    decode = lp_name_map(m)
    assert set(decode.values()) == {v.name for v in m.variables}
    for ident in decode:
        assert "[" not in ident and "]" not in ident and "," not in ident


def test_name_collision_detected():
    m = ModelIR()
    m.add_variable("a[1]")
    m.add_variable("a__1")
    with pytest.raises(ValueError, match="collide"):
        lp_name_map(m)


def test_overlong_name_rejected():
    m = ModelIR()
    m.add_variable("v" * 256)
    with pytest.raises(ValueError, match="too long"):
        write_lp(m)


def test_sections_render(fig):
    m = bracketed_model()
    text = write_lp(m)
    assert text.startswith("\\ bracketed\nMaximize\n")
    assert "Subject To\n" in text
    assert "Bounds\n" in text
    assert "Binaries\n" in text
    assert text.endswith("End\n")


def test_free_variable_renders_as_free():
    m = ModelIR()
    m.add_variable("L", lower=None)
    m.add_objective_term(1, "L")
    assert " L free\n" in write_lp(m)


def test_fractional_coefficients_have_float_form():
    m = ModelIR()
    m.add_variable("x")
    m.add_constraint("r", [(Fraction(1, 3), "x")], "<=", Fraction(2, 3))
    text = write_lp(m)
    assert "0.333333333333 x" in text
    assert "0.666666666667" in text


def test_empty_objective_writes_zero_row():
    m = ModelIR()
    m.add_variable("x", upper=1)
    m.add_constraint("r", [(1, "x")], "<=", 1)
    text = write_lp(m)
    assert " obj: 0 x\n" in text


def test_int_and_fraction_coefficients_render_alike():
    def row_text(coefs):
        m = ModelIR()
        for name in "xyzw":
            m.add_variable(name)
        m.add_constraint("r", list(zip(coefs, "xyzw")), "<=", coefs[0])
        return write_lp(m).split("Subject To\n")[1].splitlines()[0]

    ints = row_text([-3, 2, -1, 1])
    assert ints == " c0: -3 x + 2 y - z + w <= -3"
    assert row_text([Fraction(-3), Fraction(2), Fraction(-1), Fraction(1)]) == ints
    assert row_text([-1, Fraction(5, 2), Fraction(-5, 2), 7]) == (
        " c0: - x + 2.5 y - 2.5 z + 7 w <= -1"
    )
    assert row_text([Fraction(-1, 4), 1, 1, 1]) == " c0: -0.25 x + y + z + w <= -0.25"


def _random_coefficient(rng, shared):
    """An int, an integer-valued Fraction or a non-integer one, either sign."""
    pick = rng.randrange(9)
    if pick == 0:
        return rng.choice([1, -1])
    if pick == 1:
        return rng.choice([Fraction(1), Fraction(-1)])
    if pick == 2:
        return rng.choice([-1, 1]) * rng.randint(2, 10**20)
    if pick == 3:
        return Fraction(rng.randint(-50, 50) or 7)
    if pick == 4:
        # Non-integers whose float text reads "1" or "-1".
        return rng.choice([1, -1]) * Fraction(10**15 + 1, 10**15)
    if pick == 5:
        # One object shared by many terms, as a block's big-M is.
        return rng.choice(shared)
    numerator = rng.randint(-(10**18), 10**18) or 3
    return Fraction(numerator, rng.randint(2, 10**9))


def _random_model(rng, rows):
    model = ModelIR(f"random-{rows}")
    names = [f"v[{j},{rng.randrange(4)}]" for j in range(rng.randint(1, 40))]
    for name in names:
        shape = rng.randrange(6)
        if shape == 0:
            model.add_variable(name, 0, 1, binary=True)
        elif shape == 1:
            model.add_variable(name, None, None)
        elif shape == 2:
            model.add_variable(name, Fraction(-rng.randint(1, 9), 2), rng.randint(0, 9))
        elif shape == 3:
            model.add_variable(name, None, Fraction(rng.randint(-9, 9), 4))
        elif shape == 4:
            model.add_variable(name, rng.choice([0, -3, Fraction(5, 2)]), None)
        else:
            model.add_variable(name, 0, rng.randint(1, 10**6))
    shared = [Fraction(rng.randint(1, 10**12), 7), -(10**13 + 1)]
    for i in range(rows):
        width = rng.randint(1, min(6, len(names)))
        terms = [(_random_coefficient(rng, shared), n) for n in rng.sample(names, width)]
        rhs = rng.choice([0, 1, -1, rng.randint(-99, 99), Fraction(rng.randint(-99, 99), 8)])
        model.add_constraint(f"r[{i}]", terms, rng.choice(["<=", "=", ">="]), rhs)
    if rng.random() < 0.8:
        for name in rng.sample(names, rng.randint(1, len(names))):
            model.add_objective_term(_random_coefficient(rng, shared), name)
    return model


@pytest.mark.parametrize(
    "rows", [0, 1, 7, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 5]
)
def test_writer_matches_the_row_by_row_reference(rows):
    for seed in range(3):
        model = _random_model(random.Random(1000 * rows + seed), rows)
        assert len(model.constraints) == rows
        assert write_lp(model) == lp_text_by_rows(model)


def test_reference_comparison_covers_every_form():
    # The random models above hold each kind of term, bound and objective.
    text = "".join(
        write_lp(_random_model(random.Random(1000 * rows + seed), rows))
        for rows in (0, 7)
        for seed in range(3)
    )
    text += write_lp(_random_model(random.Random(1000 * CHUNK_ROWS), CHUNK_ROWS))
    for fragment in (
        " obj: 0 ",  # an empty objective
        " free\n",
        " -inf <= ",
        "Binaries\n",
        ": - v__",  # -1 at a row's head
        " - 1 v__",  # a non-integer whose text is "1", inside a sum
        ": -1 v__",  # the same at a row's head
        " <= -",  # a negative right-hand side
        ".125\n",  # a Fraction right-hand side
    ):
        assert fragment in text, fragment


# sha256 of write_lp's text for the five-node fixture under every kind in the
# paper's form, on its path-reduced graph, as written before the writer's
# integer fast path: with the fixture's integer costs, and with costs
# perturbed by seed 0 (every cost coefficient then takes the float form).
FIXTURE_LP_SHA256 = {
    "STD": "24efed295f8abc6070fd9c4fecd15bfd606732d4a88e9135d94e900f2b27b7a5",
    "VF": "044f5a041705a94a87944dee403a8edcc792b72646ea4ea15890c35b5aa3d834",
    "PASTD": "8b09456271444c75d9b6f08ce748a19383f544b384214fbd36c1cb7ed23f2441",
    "PVF": "eb6c385955603c8a965042d308947bdc46c4a648da10096c8ef3fa1bd3be357c",
    "CS1": "897ba7b6bf5837cda05d754d116b85d61082a70831e65fd5f79ca5b9de4b79ed",
    "CS2": "11a161130b9221a91b2d26cd92d367117787b56e6766b4a8a007992fde696eb0",
    "VFCS1": "395d4a36424ed3d8f5d7e579e51e38f058a66c498bcfddeb7c4f0af1e8e0d841",
    "VFCS2": "cb79858dd1102d9b1656f20c4e3ac792240e8f8b82acf678237cf52c8adcf638",
    "PACS1": "61d4d4d9a119f35c67fddabe7fc34a43e2d6b67255c3f3c69555590922ff579b",
    "PACS2": "fad02066e8ed400aeff413ad99be0d0fb0ee3ac3b8a73c7c23a6952d9f7408e5",
    "PCS1": "e10a12d117d32c8afa777b69cb89410ac27bef9aa00d6aeafedb743072dbad38",
    "PCS2": "1fe5eafc24cc218db8483393359c0f1adc8c488c2d5b2bae4743a85bf2702cc5",
}
PERTURBED_LP_SHA256 = {
    "STD": "b96e5c9c3105173711e995ac11a47eccfadb8ca83d387a555a69dd662e014850",
    "VF": "bdcaeb868054df820d42dc7e3400be93a7c0e5271d0c410a71e3b5c5bc236e41",
    "PASTD": "23eb81599003d65bfdb7b5db0c3463ae8a9a06fc156595cdd8d4d1d9cf0e2073",
    "PVF": "c4e28c1ab36ccce284893a48db1eb4b0aa7c2962c0214a4ce6c6f46322d6e29a",
    "CS1": "96f8480ebbc28501ea94b3b861f8929d67d8094008c802faa2972bef3817c9fa",
    "CS2": "6cc4970ea70cc26de680b08063aff0a8c35247d954426ebdb4147e78d961e2ac",
    "VFCS1": "382c737b88c0c0a5bc41b3b6e99242ed8f8a2f0f324835e98a6fbb78a8eff9d1",
    "VFCS2": "af1f07697bf0b9201f5417a29bcd137db96945d4e5e8ee6b9dcdb5535e72a55a",
    "PACS1": "abb85363a6c9684ed91d18971148279585d29785f22ea350bdd611585eee395b",
    "PACS2": "3af2d5ed4146e753f5e53783400a3c0b5eac5259e0ed9757726d5357ab7bed9f",
    "PCS1": "1872fd70ca486b7604271870bfaca2d63520ce2a007611adab6c83182c854950",
    "PCS2": "3b6f603b96fe0bbd106b65f1b30440795f0ae4cce38104bd30150fc2cb44e255",
}


# The same for the default form of the four kinds it changes: complementary
# slackness with direct linearization, plus the strong-duality inequality.
DEFAULT_LP_SHA256 = {
    "CS1": "71d37e45a65e2bcdcde0d4cf7782a90a663e2b42e0bd65753a8f06d7c8790cf7",
    "VFCS1": "bab3adbab2305f6a34fc40d014dc02f38b12c324ce5528232331956419d3abab",
    "PACS1": "8ddfbd4aa392a96a305f7b30479734cd2aba406ddeb3fca140063470bd0ffec1",
    "PCS1": "f78880fabe9e8ac0729d85745b9e8e6503669ade11e8fa05c23b586be0170480",
}
PERTURBED_DEFAULT_LP_SHA256 = {
    "CS1": "0976044b9ce4012628ebdb8a78598708d6669f54a62738019a996f0c77ecf735",
    "VFCS1": "eb907241fddfc2542a99e8f7e40667afaa8daf601de4dcfe2a5014246d77eb7c",
    "PACS1": "a04f0de3bf028f94626ac0ee199e0352f10057a9f217932bd28844ea922d8362",
    "PCS1": "23bb2df0fb01b046487fe8c35af3eb301cd330ba1297411056671dc21c6abc6b",
}


def _fixture_lp_text(instance, kind, paper_exact):
    return write_lp(fixture_model(instance, kind, paper_exact=paper_exact))


def _fixture_lp_sha256(instance, kind, paper_exact=False):
    text = _fixture_lp_text(instance, kind, paper_exact)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind", [k.label for k in FORMULATIONS])
def test_fixture_lp_text_is_pinned(fig, kind):
    assert _fixture_lp_sha256(fig, kind, paper_exact=True) == FIXTURE_LP_SHA256[kind]
    assert (
        _fixture_lp_sha256(perturbed(fig), kind, paper_exact=True)
        == PERTURBED_LP_SHA256[kind]
    )


@pytest.mark.parametrize("kind", sorted(DEFAULT_LP_SHA256))
def test_default_form_lp_text_is_pinned(fig, kind):
    assert _fixture_lp_sha256(fig, kind) == DEFAULT_LP_SHA256[kind]
    assert _fixture_lp_sha256(perturbed(fig), kind) == PERTURBED_DEFAULT_LP_SHA256[kind]


@pytest.mark.parametrize(
    "kind", sorted(set(FIXTURE_LP_SHA256) - set(DEFAULT_LP_SHA256))
)
@pytest.mark.parametrize("perturb", [False, True], ids=["exact", "perturbed"])
def test_paper_exact_leaves_other_kinds_unchanged(fig, kind, perturb):
    instance = perturbed(fig) if perturb else fig
    default = _fixture_lp_text(instance, kind, paper_exact=False)
    assert default == _fixture_lp_text(instance, kind, paper_exact=True)


# Static builds in the default form, each as (fixture, fixture perturbed at
# seed 0), recorded before the block emitters and the assembly loop were
# rebuilt around one per-block record: every kind on the unreduced graph,
# the kinds allowed on the shortest-path graph there, and every kind as the
# hybrid main kind on the three-role fixture at breakpoint 2 with STD as
# fallback (one commodity falls back, one is main, one is dropped).
UNREDUCED_LP_SHA256 = {
    "STD": (
        "0b1947e8dd298bef0f82cae844420ea6ddd08d21f8d801b625560da48ca33738",
        "8be873b0c3756386b0ab2788d3cdf7cda6b4d2e04966f9fed8f5e6493a871950",
    ),
    "VF": (
        "2af35d983689ad33fa4959043799927144cf4e1dc66b3a1cbc8668bc6a90534b",
        "c81e80cacebfc3e89b1362b1eaf57639eb8f1a51093b65e87f00c67fab4eab14",
    ),
    "PASTD": (
        "afcb07a44eb35696937b05e2a41c6e8dc0ac2ba3a834655982c67d3d424d1a7c",
        "8d507c1099696a6a206940e558f2fbc8b4f21e22fecfccb04368ef7a5e433413",
    ),
    "PVF": (
        "2301bf72f60f2e446de544133df95208b08c5386c493cb51fdd5685c881d2516",
        "23e4cdcc40d8674ecbeed2b4dcb3641d104b831308d59acaec862198ff67c5d2",
    ),
    "CS1": (
        "e98005c141386cb6142af5c59531f1f9aa0d796400602468afc00fede9faa1fd",
        "f1fbea0e320d8ec0faa281f4fff01f5fb1b0acf7d68ba5850fa183c14c305103",
    ),
    "CS2": (
        "083ba2d09ccf73beee8fd69958fd712aa6252f0b3e94f088c9a5d9990c895d4f",
        "5e4e33f8978d49d348543021ad2e888aa4da83b1ab14cc2b7afa4f8baeaed6c7",
    ),
    "VFCS1": (
        "734b60919f45c2c0b92fc1fc1f505238948f30f1b76c8d8227f488ceac0f3db9",
        "812c8a1464dd66b60ddcf758e56250b168834332fa9efc745f4fe5f6da354e5f",
    ),
    "VFCS2": (
        "26735bcaaf41ed0435f1e6f5c1c448f42ef749c0429eee7b7826d750679999c4",
        "e731d247fe2ffc897515f6fecf7a6f397f338f213077a3288f2a8bd4a56b21e7",
    ),
    "PACS1": (
        "95d4d303b8b7cd7e076a6300ad429df3568298fe89ad53187ac5c79e943de8ad",
        "38029b02b506f040f464bf8cc63bf1df4a73ba2db7650f6cdb458baa9afa35f6",
    ),
    "PACS2": (
        "dce1bbcfe510c46a2f177ad0d2951a9acd7dba7b4604d0435221fcdb7fb8018e",
        "1c15f9a0310107bbcb2e568c0c940f39acf9a945eef7f96e38ccc9b25f7d986e",
    ),
    "PCS1": (
        "c551f521503bbe9d95ea491dea2e059fde916406042abd06f6058014a66aac44",
        "af15ce0c4a21fada1da26bcd685f016639dfec3d3fcfd9299f5a37848078c94b",
    ),
    "PCS2": (
        "521df0a4de09e08c2694cfba87c6583ff68beb46e85c55efdcf396ca0822d82d",
        "b5a6181076da3189279fdf6a68615c56be6c47d129ee5840014997544e57e6e1",
    ),
}
SPGM_LP_SHA256 = {
    "STD": (
        "9496d5e69ec0da4cc658278f543cbd08d2f9dd2a507e354e57fb468068e8d304",
        "ad242c5cb28053aa8732ff024259afc84871ee35b8c6c74b6ea43d0d52d74aed",
    ),
    "CS1": (
        "977bdf50d220aab202720f22b0fcc88563e65e9a9ac8db09666f453144f678d8",
        "b9a61ac530b0beee278044935cf927de5c1a12a70265bb85a3064bdec4abb4ac",
    ),
    "CS2": (
        "75cbd2c1b523e869de5d4e6f791097e6374f4ee1a36cb90007672f992bfa4e33",
        "82e4f41ef051da978e7ef5cf7d5694992a6d57dd07fb987472e41cc04a37e524",
    ),
}
HYBRID_LP_SHA256 = {
    "STD": (
        "68bd599bdf6b2eaaeabfce59098212940dc7ad530bcb9dad034c919cd886884b",
        "12c8ffbfda324ee16e6936a3dae14f5f7e55715ee7a4d89fcbbf011dbba588a3",
    ),
    "VF": (
        "d3bbe1a0a0a1b7ed8ef1ddf797ec9cdedd19691258f7cbd383abed21d612f70a",
        "57d6c9722b358c1b92fc6b10d3fdfbddc2a87050cdc36b929711b668d85e4528",
    ),
    "PASTD": (
        "e48b6b460c0cccf6d4427c1ee976dfa4d080dc7e5800bb1fe6a51552681edd4a",
        "b0505b8e3095b1f40037c00b27839307cf197b53b817ade4cac3da34712d2e64",
    ),
    "PVF": (
        "3399c8876551d05a678f725ed513318c1835e5f3e6504d01de4af28e24501628",
        "cb35e07eed10873dc4cd59557d178d67a42d55df2f40da6f13e6e45e10480199",
    ),
    "CS1": (
        "55674e0639650c35200ec7306d0061579792ff4d46d1a88701b521d65a649c52",
        "b940d336ee0433a2781b37e7c22593279e1281c08b83876a1fa57c3531368454",
    ),
    "CS2": (
        "3f413d3eb22cbd46349bd2e821cc1d71c5fa1ec3d584e7b9ff699bf5eb63c5c3",
        "2954d6b1c82dbbe5b2a201f9ed48e3ba25e9a4a04f9b285d09532c59f1bb9ebf",
    ),
    "VFCS1": (
        "386e6e56f23e90288a27178d79ecd8e576ac746a7bd8f435aa72a31c3a39766a",
        "625d69fc53c26bb5406a949e136afbaa8b64f968e6461f7c396a6c5cc4c54e13",
    ),
    "VFCS2": (
        "3b53af9ae985f8f1d55773de8650d3e242689e1d8a6e1bd1c3d41fb6fa7b80e2",
        "b9d57de8f3b82ab632c5e7bfcf34d5fed828013dcb3b09c8d49818cdd84acb4a",
    ),
    "PACS1": (
        "e03e17effefcdba4435e978f099214176eff61fe3802d96f68636049bb64e338",
        "9513fffcb2d690bd4cbfb953d6b2fd254cd4ecd7b469dd9550f83e21efff3cce",
    ),
    "PACS2": (
        "0dbae660a5bffe51f5099608f90dec3892176f481d9fe7679ecaae032eb2ec04",
        "42edf0c7d36fb8f74ed63d874d97eec44efbbe03dcbfaae8c39b438cb4e08c71",
    ),
    "PCS1": (
        "c57846b020ffdcc4b8911e83424861bec1f905c166f52d4ce1a64100bebf993b",
        "053b73ee75fcc1e79e4fd914f14bf316cb9097fcfb256b4f69ffa6019dd5c7fe",
    ),
    "PCS2": (
        "9b72de996d0b6498b5f95d0f5671f6ae8e7be50260d8ef943c3160145a71620c",
        "b463d9cb2ca866b56e78857c6bc183b62794128ed19154c747a755d13eafc60d",
    ),
}


def _sha256(ir):
    return hashlib.sha256(write_lp(ir).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(UNREDUCED_LP_SHA256))
def test_unreduced_lp_text_is_pinned(fig, kind):
    built = [_sha256(fixture_model(i, kind, preprocess="none")) for i in (fig, perturbed(fig))]
    assert tuple(built) == UNREDUCED_LP_SHA256[kind]


@pytest.mark.parametrize("kind", sorted(SPGM_LP_SHA256))
def test_spgm_lp_text_is_pinned(fig, kind):
    built = [_sha256(fixture_model(i, kind, preprocess="spgm")) for i in (fig, perturbed(fig))]
    assert tuple(built) == SPGM_LP_SHA256[kind]


@pytest.mark.parametrize("kind", sorted(HYBRID_LP_SHA256))
def test_hybrid_roles_lp_text_is_pinned(fig, kind):
    built = []
    for instance in (fig, perturbed(fig)):
        inst, enums = three_role_instance(instance)
        bfsets = {k: e.feasible_set() for k, e in enumerate(enums)}
        bigm = compute_bigm(inst.network, inst.commodities, bfsets)
        hybrid = assemble_hybrid(inst, 2, kind, "STD", bigm, enums, allow_vfcs=True)
        assert [a.role for a in hybrid.assignments] == ["fallback", "main", "dropped"]
        built.append(_sha256(hybrid.ir))
    assert tuple(built) == HYBRID_LP_SHA256[kind]


# One sweep-scale build per (main kind, breakpoint): grid:5x12 with 40
# commodities perturbed at seed 0, built like ``tollgate build --main KIND
# --fallback STD --breakpoint N``.  Recorded before the pre-solve path
# shared distances per destination and paused the garbage collector.
SWEEP_LP_SHA256 = {
    ("STD", 8): "802846ef249fb3b07783532457561e651a5d21c6a95a8fd35ea54b628ecce9fb",
    ("STD", 64): "c143bcd18dcf1aecb36d7d077cc1bf51c5776bbc08d8763c32c38edbb8cff02b",
    ("PCS2", 8): "39e1d7935056b32e2920eecec2c8befd51a34563c392b51a9c97d6984129a5c2",
    ("PCS2", 64): "816a50456c7a4d4e545a9b6122fc0eb150f1368d8182e5a6fe26279b8567d8cc",
}


# Main kinds that read the big-M distance rows: CS1 (arc duals, through
# ``arc_slack_bounds``) and PACS2 (path duals, through the stored path
# bounds), at breakpoint 8 on both sweep topologies, 40 commodities
# perturbed at seed 0, fallback STD.  Recorded before the big-M constants
# were stored as integers.
SWEEP_CS_LP_SHA256 = {
    ("grid:5x12", "CS1"): "3331b8bc84407b203b9665983df0fda96793fe8ae3140abd50239173b000952d",
    ("grid:5x12", "PACS2"): "51b9944156e4c417827200674300dc0eafed7879c132e30708ee7dd5e32d3aca",
    ("delaunay:60", "CS1"): "57a3d9712ee10b8690ceabc03aae764c0807472fe9b32f567ed86dfe873d5495",
    ("delaunay:60", "PACS2"): "cace249e4911da4ff12118007ec13bbce013979578c5e10a5e9b0dadc13745cd",
}


# The same builds on delaunay:60, the largest in the sweep benchmark (up to
# 16k rows, so several of the writer's row chunks).  Recorded before the
# writer rendered rows a chunk at a time and before blocks declared their
# variables in one call.
DELAUNAY_LP_SHA256 = {
    ("STD", 8): "bc024ab7407c17fddad93032e67a49ca613029d8ea142697d5980acd8d3e70ae",
    ("STD", 64): "3a0fdcc2771e2d51e5f3399410e0727e88fcb50ee8286fc0b62e4c639b61db50",
    ("PCS2", 8): "e47aec35d107dabdb461097f84fb26d32fcb68e49f6cb303a1c58c57e8135283",
    ("PCS2", 64): "8105d1b9bded976944d9b168ca825a6428451d775d09dc53634c5df0a775faa4",
}


# The same builds on both sweep topologies at their generated costs, the
# costs every CLI command and sweep solves at.  Integer costs can tie a
# tolled path with the toll-free one, which perturbed costs never do.
RAW_SWEEP_LP_SHA256 = {
    ("grid:5x12", "PCS2", 8):
        "63ed350ce3ec61389bb19bf9c16265dbac8e932b72329f61c75523fdaaaee297",
    ("grid:5x12", "PCS2", 64):
        "28b65d0e3658e8b731ec430faee29b813a892c6005819ff6ecc551433b052061",
    ("grid:5x12", "STD", 8):
        "511436a64f4b20cdd19c4a716021323461ae51f8660f680a588220e72f91ed6d",
    ("grid:5x12", "STD", 64):
        "29c8f9ab4f4831ccf936c42974dba587421dd1c48437fc53f9868e7833ad67f2",
    ("delaunay:60", "PCS2", 8):
        "d3ca3de160623e3e4dc5f1f0a0a522a4146de4c080801a14ef28bfb0ae00ec5b",
    ("delaunay:60", "PCS2", 64):
        "ef41683a8a680ca1ce937f596684be0137e774268364a45f806c9a23b1d7503d",
    ("delaunay:60", "STD", 8):
        "b892c990943106dd0df6f4bd7d9662ec681c4a1c432d9843ab78b5c70dc67037",
    ("delaunay:60", "STD", 64):
        "17821ea7d4b1feefa6e1a02e7cf8369205624a244f0733abb794f4f60e6d6596",
}


def _sweep_lp_sha256(topology, kind, breakpoint):
    return _hybrid_lp_sha256(sweep_instance(topology), kind, breakpoint)


def _hybrid_lp_sha256(instance, kind, breakpoint):
    """``tollgate build --main KIND --fallback STD --breakpoint N``, hashed."""
    net = instance.network
    enum = [
        enumerate_paths(net, com, cap=breakpoint + 1, commodity_index=k)
        for k, com in enumerate(instance.commodities)
    ]
    bfsets = {k: r.feasible_set() for k, r in enumerate(enum) if r.feasible_set().exhaustive}
    bigm = compute_bigm(net, instance.commodities, bfsets)
    hybrid = assemble_hybrid(instance, breakpoint, kind, "STD", bigm, enum)
    return _sha256(hybrid.ir)


@pytest.mark.parametrize("kind, breakpoint", sorted(SWEEP_LP_SHA256))
def test_sweep_scale_lp_text_is_pinned(kind, breakpoint):
    assert _sweep_lp_sha256("grid:5x12", kind, breakpoint) == SWEEP_LP_SHA256[(kind, breakpoint)]


@pytest.mark.parametrize("kind, breakpoint", sorted(DELAUNAY_LP_SHA256))
def test_delaunay_sweep_lp_text_is_pinned(kind, breakpoint):
    assert (
        _sweep_lp_sha256("delaunay:60", kind, breakpoint)
        == DELAUNAY_LP_SHA256[(kind, breakpoint)]
    )


@pytest.mark.parametrize("topology, kind", sorted(SWEEP_CS_LP_SHA256))
def test_sweep_scale_slackness_lp_text_is_pinned(topology, kind):
    assert _sweep_lp_sha256(topology, kind, 8) == SWEEP_CS_LP_SHA256[(topology, kind)]


@pytest.mark.parametrize("topology, kind, breakpoint", sorted(RAW_SWEEP_LP_SHA256))
def test_raw_sweep_lp_text_is_pinned(topology, kind, breakpoint):
    assert (
        _hybrid_lp_sha256(raw_sweep_instance(topology), kind, breakpoint)
        == RAW_SWEEP_LP_SHA256[(topology, kind, breakpoint)]
    )


def _read_with_highs(text, tmp_path):
    path = tmp_path / "model.lp"
    path.write_text(text)
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == HighsStatus.kOk
    return highs


def _bound(value, missing):
    return missing if value is None else pytest.approx(float(value), rel=1e-11)


@pytest.mark.parametrize("perturb", [False, True], ids=["exact", "perturbed"])
@pytest.mark.parametrize("kind", FORMULATIONS, ids=lambda k: k.label)
def test_highs_reads_back_the_written_model(fig, kind, perturb, tmp_path):
    instance = perturbed(fig) if perturb else fig
    model = fixture_model(instance, kind.label)
    highs = _read_with_highs(write_lp(model), tmp_path)
    lp = highs.getLp()

    decode = lp_name_map(model)
    names = [decode[ident] for ident in lp.col_names_]
    assert sorted(names) == sorted(v.name for v in model.variables)
    col = {name: j for j, name in enumerate(names)}
    for var in model.variables:
        j = col[var.name]
        assert lp.col_lower_[j] == _bound(var.lower, -math.inf)
        assert lp.col_upper_[j] == _bound(var.upper, math.inf)
        assert (lp.integrality_[j] == HighsVarType.kInteger) == var.binary

    assert lp.sense_ == ObjSense.kMaximize
    cost = [0.0] * len(names)
    for coef, name in model.objective:
        cost[col[name]] += float(coef)
    assert list(lp.col_cost_) == pytest.approx(cost, rel=1e-11)

    assert lp.num_row_ == len(model.constraints)
    assert list(lp.row_names_) == [f"c{i}" for i in range(len(model.constraints))]
    for i, con in enumerate(model.constraints):
        rhs = pytest.approx(float(con.rhs), rel=1e-11)
        assert lp.row_lower_[i] == (-math.inf if con.sense == "<=" else rhs)
        assert lp.row_upper_[i] == (math.inf if con.sense == ">=" else rhs)
        _, cols, values = highs.getRowEntries(i)
        read = {names[j]: v for j, v in zip(cols, values)}
        assert read == pytest.approx({n: float(c) for c, n in con.terms}, rel=1e-11)

    if not kind.needs_cut_loop:
        highs.run()
        assert highs.getModelStatus().name == "kOptimal"
        objective = highs.getInfo().objective_function_value
        expected = ScipyBackend().solve(model).objective
        assert objective == pytest.approx(expected, rel=1e-6)
        assert objective == pytest.approx(7.0, rel=1e-6)
