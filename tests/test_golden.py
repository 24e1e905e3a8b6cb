"""Golden outputs: sha256 digests of sorted-key JSON, pinned byte for byte.

The digests were recorded with the dense elimination that preceded the
sparse kernel engine; any change to which kernel vector a pipeline returns,
or to how it is serialized, shows up here.  Do not re-record them to make a
kernel change pass: a differing digest means the outputs are no longer
byte-identical.
"""

import hashlib
import json

import pytest

from gradedsrc.cli import main
from test_acceptance import _run_criterion_1, _run_criterion_7
from test_cli import Z2_Z3_GROUP

# criterion 1's 70 solutions, in the order the criterion solves them
CRITERION_1 = [
    "c0ddf3a404ab3370887da7f3cd89470c8a51435958eb5dde52e6364751c7a040",
    "9987bdba584384c9ac130bc446e3eb5075e60a74d74eaa609387d4fdb9e2d68e",
    "78a5c8c2ed57f59aaa3eff91974241d05e9fa95ee18b4305d1c0e056be65056b",
    "45d47d64ede74d951757935a4774771ea069c8953033cf62f24886313ff237be",
    "3ea481ae5043ae715db92f82a3dc68075ac9a33be48083cd2cba6c8ade2c7f88",
    "11c38a8d7a7d8343839ffd3c6070f9ea3db1a7de5ccb7021d4ef0a4394b05b6b",
    "628667a6b39d95e36b5a53a1d43ec5e13d07aefc7051c8ca6ad60c20f810909b",
    "a61561feed146985feaf94289a987643e7387a58b3516cdf6c6ddeabce480ca7",
    "cb9bf7b3dcea5e7ab79d80d2e7f21e1695c07a1d537ff67e364a0144f488c9c1",
    "97eb8419f6e3822e255d02b285dd71afcb5c795652f97a3261ed14fced543d26",
    "b2691befc0e681d3edbced21639df040adcb527d7f79dca6aacd6bcc6c09a6ce",
    "924b4798f105b87962782e0e9d5e6f72afd59dd3ec40f2e3bb32a5ff647fde9d",
    "4f16495abb9c6d785739554f1742fda69d8d9c4dc48f0a6f4d8befc419be41ff",
    "38a2944e361ab66c0a75c02a9214308182786385c9dd9af0ad5ff5f3f90f22ee",
    "7de17db238d8a541f6959e2067e483161e2310ebb2f4e085bf375819d5f3729e",
    "a6443906a6cc41eab8522fe19d1a003e8356980924a53fac286ed47daa1eaf47",
    "a6ec1c800da0fa90c251ab80e84b2443d06e2117769311037706d813bb5b7bbf",
    "6c3bd4674f12974265f65f1f76862c85886b1cfab1f39de554e1f04b5511200f",
    "a63dd36461e087479f71dffacd5c9aa18a863dd9101eb1c156775dc93924bf8c",
    "450d3bb6496dc5edcbb373ada95e62124a7204a189b5e2e8807ffd9e79426058",
    "ee13996b63827a11b1bf53b335de483d1b0923d192b9ecef3203f657e87ed77a",
    "7084e51505c8f7ac28a2aaec19e29ef429e19b4e21c93fce280147adb8bbe87f",
    "892e708afe3b98c0c044f564bcc4279b56eb739eeb9e2900eb6978604978a151",
    "360be5920db3fb5dd7c9d1b5765f9b5b520800e7803cd1a9753b962e6de579a3",
    "257ecf1fcbe241e65466b493ab329c1fa2a1376da37c7b74c523c3e8bc407e58",
    "86725c57f963183190cc4ed494fc62006020f7f8a6071d65b0395cb10e9a2f74",
    "f8d5e952a4e80fce184b32bbbecaf1539ea9495027cf86fdeb24d50ba00d7d99",
    "af4ca9eab73d781a4cb992e334952b4dc8a4b39118f9c4690a39abdac2196179",
    "c7ea651dc8399ededa0bb80abb8516476701e20a5a56e1edead1cdace327c421",
    "20ba5c875cba38406e620e8da005f0acedf122126cf66be91d61e1ae90222ef2",
    "9488b5f5899b58a9fd08b2713b7784848475100df4ed2f5ac2bb70219aca1b7e",
    "20cb2092bd312d3ed4f88f00af489c30c352f69134bab5983b6026e056c3d5cf",
    "45606dd6909de2cea7c636af1d05d943e915469b1ea807ff1c919bbc056a4761",
    "8d22006328863f07c769ad29820b48c728b640563942832e14d2ee4e8cdb415a",
    "85331418c447e94512b56e63d73c32781e087034c0aa39e2482eff3f56be28d1",
    "023443bcbb8779af05b9a154d98548f39ca4d062cad87018eabd6acb09f9ed5d",
    "80306375d7e3721884b1bcd5525c3a884aac61e0936a335654b57303d7de5aa8",
    "22350b49c3db0ad54e224bb05c40099fff6c434a0cb81314240b3700a8d0ca94",
    "fda62da35c8b0550fd8accfd09e4d95792fa2295cdf1379f838a30507af30a8b",
    "8b14f898e1e177927d328aad42bd959deeb6f3791b549d4807b4371841882643",
    "db0b422e546a0a15de985dc8f4ccf2be1260238998dd539647795ac18b70db11",
    "094676523799dd8f6b8488fa41cf57636c5da0b54f1b8cce9db775b689261b57",
    "b12aee09c4a3c42216529caf330382880cfa75d6b5cdd0c7c06b7da992285761",
    "926c5f153a831287ca809ea426b6d6f6d8f2d1c7a439c1e42b5b63c0f50be4f7",
    "c8e540e2ce057b6366591c603613a9302e101d06deae34538d5491827243d0ae",
    "dc0679f8e24cc63bbd6a4318c4462345baf75a5d21c904b8fde9725ab05cb1b2",
    "a537eef40110df36c6e8fa74b31eac5af5696920afe456c0fee93fb73cb21a3b",
    "308f82343ffe6a4a1a12bc2f16306fdb1a93e7cc18839bd1497869c580c9707e",
    "beb021bab0b2e1a368f12c270f73aa5024a478726b494a3351dd2e818e26d9e8",
    "bd2359da3899542e6f3b7a12cd29696da5ca11b26aab05497ab3ab0324ec8be0",
    "c8c3fabf9b691f72e329ce3ae85ba98872efe2c1e3b4fad6c8d9048ee5498a08",
    "b46d25551a62166819d274dd7c46452659730b0a98973fa51bfa0a6ce0fe2ce5",
    "39ae8f2546769a247d894e7cd6d84aa493774e1a325871b2e34e8478fbe3c313",
    "75e01e21d13ab6cf1b5e4b34d60c78a34a9c037759e1519885e71bb5e9420529",
    "16b1bd43b3e6c3e51625e14ae46ee1ce91f688b98ef0f2501dcdfa74a88797f8",
    "e776aaffe6609634a509419fd4bd8bd9aca6f35be6a8cec5350ae9e6a3557567",
    "77dcd29cab38f52f8c64e55fa4f52ad0538e2760263cf13c0b02304330d67b98",
    "01ee93d55df9522e920336fb5921b6a2745901858c661d8e3f64a28fba17a5d1",
    "bcce7aa7ae4ed4806dca47873a95bd3f36d54133c94f6e3187af96edcf7f47fc",
    "f394480762fb77a80bad7766bb686c8338fd61b44c61650f0a16e7d810d9867e",
    "f6d7031c33b202736263dc73daf4f4db8a281f833d0a0fd3194500b667f9178b",
    "f9cb42719a8e76e437081a2bb7d9851e15d90f69c5aaefd7cb7dc47437b10605",
    "f7d687789d801a9697a632028f8622ac3e50042e4ec022531f8d03c4b5b0f212",
    "07d07fcafddb7a2d7368cf340593ff78a2ac717653aaee5a9694402a41dadd20",
    "2cfd70202372751db1c6c20fba16ce77c37e8e4eb084901e0ecf0ad73a66c2f9",
    "929bf1f7583858c5b70ec6948f5894a92fb07e0fcba663f6f3004f485979c1e9",
    "cf5ef9b5b67f76413c74cc10c082dab0f33e31ffd8f7a83bf6136ee6eb1fa223",
    "385a5f256816534b0291a0b778e7fc4963be322ce7191dc01ff7f8046785d3ca",
    "370baac52647c853f8163701f3734ec2bdf7a96084fc56d3d5e396ae9d8b3a2d",
    "7349d965f5eef12a101f8893165a66f62a2a688c34cc3bbe3cf30721d25cfe45",
]

CRITERION_6_ALPHAS = "4fc684fdd178ccaa4751c7c53cbe151d2d0ee1380b9e29698b57b8bd6f1245fe"
CRITERION_7_THETA = "cb74708aac449ece4feca55efb5df628584f8f123f7ff2549da339885a00715c"

CLI = {
    "embed-cert --coeff Q --radius 3": (
        "41960ab467a24c86491396acf5ab3bf29b073ce2486247e7725826efcf9a1658"
    ),
    "embed-cert --coeff Z --radius 3": (
        "db5746bfe2a35f60e909e2aa40508115444cd0e61d0235faf5d5d265f068b981"
    ),
    "theta --radius 3 --seed 0": (
        "229fa6be893271b11a25b2a11067098efee4a601c30bc1c3152625cf0f93b87b"
    ),
    # recorded with exact elimination alone, before the mod-p pass over Q and Z
    "embed-cert --coeff Q --radius 4": (
        "eaef464cd6174dc87dba552dfc7a47d2962581e6be7c25769d1d36eb7c4ee53d"
    ),
    "embed-cert --coeff Z --radius 4": (
        "77162fb3c58f7ea42f5c0dc29d30e64cfc75947ffd100f26edd6484adc00b932"
    ),
    # recorded with polynomial F_q arithmetic, before the log/Zech table front:
    # odd characteristic, where -1 != 1, and 1610 columns with 5 kernel vectors
    "theta --field 3 --radius 2 --seed 2": (
        "f77aa183939359aff33656e31144271a3d6f1b7ec82e19dfb759e0a72370ca3a"
    ),
    "theta --radius 4 --seed 1": (
        "224f08cabeb2feb929792c002e2cc8f7511dedcd32378b26cf4868ad7de7dd54"
    ),
    # recorded before the engine indexed pivots by row, when every column was
    # tested at every earlier pivot row
    "theta --radius 5 --seed 0": (
        "e62583467e44a36d63cb3801cc1633615d141e18ca010a766e36ebd0976dfd96"
    ),
    "embed-cert --coeff Z --radius 6": (
        "5a4111785297c10b45f3f9872447683cb789d0cbaffbc91755319065ab734cd7"
    ),
    # recorded with dense determinants in the alpha sampler, before it tested
    # nonsingularity through the sparse engine; a block of the first sample
    # is singular, so the alphas carry "attempt": 1
    "theta --field 3 --radius 1 --seed 29": (
        "efdbf21a58e616386c020547640f65aa213d9f87bdb6194812137ada726e6cc2"
    ),
}


# the default-seed system of the benchmark's solve-s5 workload
SOLVE_S5 = {
    "group": {"family": "symmetric", "n": 5},
    "coeff": {"ring": "Q"},
    "m": 1,
    "n": 3,
    "a": [[
        [[[4, 2, 3, 5, 1], "1/1"], [[5, 1, 2, 4, 3], "-1/1"]],
        [],
        [[[4, 2, 1, 5, 3], "2/1"]],
    ]],
}

SOLVE_S4 = {
    "group": {"family": "symmetric", "n": 4},
    "coeff": {"ring": "Q"},
    "m": 2,
    "n": 3,
    "a": [
        [
            [[[1, 2, 3, 4], "-1/1"], [[2, 1, 3, 4], "1/1"]],
            [[[2, 3, 4, 1], "3/1"]],
            [[[4, 3, 2, 1], "1/2"], [[1, 3, 2, 4], "2/1"]],
        ],
        [
            [[[3, 1, 2, 4], "1/1"]],
            [],
            [[[1, 2, 4, 3], "-2/1"], [[2, 1, 4, 3], "1/1"]],
        ],
    ],
}

# a 1 x 3 system over Q[S_6] with two terms per entry, as in SOLVE_S5
SOLVE_S6 = {
    "group": {"family": "symmetric", "n": 6},
    "coeff": {"ring": "Q"},
    "m": 1,
    "n": 3,
    "a": [[
        [[[2, 1, 3, 4, 5, 6], "1/1"], [[2, 3, 4, 5, 6, 1], "-1/1"]],
        [[[6, 5, 4, 3, 2, 1], "2/1"], [[1, 3, 2, 4, 5, 6], "1/3"]],
        [[[3, 1, 2, 6, 4, 5], "-3/1"], [[1, 2, 3, 4, 6, 5], "1/1"]],
    ]],
}

# D_3 as an explicit table: r^i is "r"*i, s r^i is "s" + "r"*i, and
# (s^a r^i)(s^b r^j) = s^(a+b) r^((-1)^b i + j)
D3_LABELS = ["", "r", "rr", "s", "sr", "srr"]
D3_TABLE = [
    [3 * ((a + b) % 2) + ((i if b == 0 else -i) + j) % 3 for b in (0, 1) for j in range(3)]
    for a in (0, 1)
    for i in range(3)
]
FOLNER_D3 = {
    "group": {"family": "finite", "elements": D3_LABELS, "table": D3_TABLE},
    "s": ["", "r", "s"],
    "ratio": "3/2",
}

# a 2 x 3 system over Z[Z^2]
SOLVE_Z_Z2 = {
    "group": {"family": "abelian", "rank": 2},
    "coeff": {"ring": "Z"},
    "m": 2,
    "n": 3,
    "a": [
        [[[[0, 0], 2], [[1, 0], -3]], [[[0, 1], 5]], [[[1, 1], 1], [[0, 0], 4]]],
        [[[[1, 0], 7]], [[[0, 0], -1], [[0, 1], 2]], [[[-1, 0], 3]]],
    ],
}

# a 2 x 3 system over F_9[Z], F_9 = F_3[x]/(x^2 + 1)
SOLVE_FQ9 = {
    "group": {"family": "abelian", "rank": 1},
    "coeff": {"ring": "Fq", "p": 3, "k": 2},
    "m": 2,
    "n": 3,
    "a": [
        [[[[0], [1, 2]], [[1], [2, 0]]], [[[1], [0, 1]]], [[[0], [2, 2]], [[2], [1, 1]]]],
        [[[[1], [1, 1]]], [[[0], [2, 1]], [[-1], [0, 2]]], [[[0], [1, 0]]]],
    ],
}

# 1 x 3 systems over Q[C_4] and over Z/2 x Z/3 on list labels
SOLVE_C4 = {
    "group": {"family": "cyclic", "n": 4},
    "coeff": {"ring": "Q"},
    "m": 1,
    "n": 3,
    "a": [[[[1, "1"], [0, "-1"]], [[2, "2"]], [[3, "1/2"], [1, "1"]]]],
}
SOLVE_Z2_Z3 = {
    "group": Z2_Z3_GROUP,
    "coeff": {"ring": "Q"},
    "m": 1,
    "n": 3,
    "a": [[[[[1, 0], "1"], [[0, 1], "-1"]], [[[1, 2], "3"]], [[[0, 2], "1"], [[0, 0], "1"]]]],
}

INPUT_FILES = {
    "solve": {"s5": SOLVE_S5, "s4": SOLVE_S4, "s6": SOLVE_S6, "z_z2": SOLVE_Z_Z2,
              "fq9": SOLVE_FQ9, "c4": SOLVE_C4, "z2_z3": SOLVE_Z2_Z3},
    "folner": {"d3": FOLNER_D3},
}

# s5, s4 and d3 recorded with the triple-loop associativity check that
# preceded Light's test; c4 and z2_z3 before groups took equality from a key
FINITE_GROUPS = {
    "solve --budget 1 s5": (
        "3ab1bc5b21d1ab89d21a4faeeb2d07d8703d35293f823e708762dd2998fb4c79"
    ),
    "solve --budget 1 s4": (
        "494ed307f510d84b0f27b9e8f40073f47a18c753f5f3655eb0a7263165c62009"
    ),
    "folner d3": (
        "5301a8c894a9b5dab8062aed9faec5b5c9281c38caabfd3f3bc2bde6ab43f112"
    ),
    "solve c4": "247a54db0bd3062e1652eee6b133a188e1f6489d9d076691be046a20eaa7ec99",
    "solve z2_z3": "dbee7f81ca1afedd795ddc87b54fcd292394961d5c00412fcbb2f08800c2faff",
}


# recorded with S_6 built and checked as a 720 x 720 table, before the
# symmetric family multiplied by composition
SYMMETRIC_SOLVE = {
    "solve s6": "e7ae688303645b69a3327d34ee31cf2aefbb72c911b50660b779ff9abc267e83",
}


# recorded with exact elimination alone, before the mod-p pass over Q and Z
INTEGER_SOLVE = {
    "solve z_z2": "1bd110573c534c7cb624444295b78ef41533434fcd123a332b94966b77245602",
}

# recorded with polynomial F_q arithmetic, before the log/Zech table front
FIELD_SOLVE = {
    "solve fq9": "fd12f7e4d1584c553d020d9b9f442909617dbd745caad3820841613b394df4e4",
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_criterion_1_solutions():
    _, payload = _run_criterion_1()
    assert [digest(sol) for sol in json.loads(payload)] == CRITERION_1


def test_criterion_6_and_7_outputs():
    theta, _, payload = _run_criterion_7()
    assert digest(theta.alphas.to_json()) == CRITERION_6_ALPHAS
    assert digest(json.loads(payload)) == CRITERION_7_THETA


@pytest.mark.parametrize("argv", sorted(CLI))
def test_cli_outputs(tmp_path, argv):
    out = str(tmp_path / "out.json")
    assert main(argv.split() + ["--out", out]) == 0
    with open(out) as fh:
        assert digest(json.load(fh)) == CLI[argv]


@pytest.mark.parametrize("case", sorted(FINITE_GROUPS))
def test_finite_group_outputs(tmp_path, case):
    *argv, name = case.split()
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(INPUT_FILES[argv[0]][name]))
    out = str(tmp_path / "out.json")
    assert main(argv + ["--in", str(infile), "--out", out]) == 0
    with open(out) as fh:
        assert digest(json.load(fh)) == FINITE_GROUPS[case]


def run_input_file(tmp_path, case):
    command, name = case.split()
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(INPUT_FILES[command][name]))
    out = str(tmp_path / "out.json")
    assert main([command, "--in", str(infile), "--out", out]) == 0
    with open(out) as fh:
        return digest(json.load(fh))


@pytest.mark.parametrize("case", sorted(INTEGER_SOLVE))
def test_integer_solve_outputs(tmp_path, case):
    assert run_input_file(tmp_path, case) == INTEGER_SOLVE[case]


@pytest.mark.parametrize("case", sorted(SYMMETRIC_SOLVE))
def test_symmetric_solve_outputs(tmp_path, case):
    assert run_input_file(tmp_path, case) == SYMMETRIC_SOLVE[case]


@pytest.mark.parametrize("case", sorted(FIELD_SOLVE))
def test_field_solve_outputs(tmp_path, case):
    assert run_input_file(tmp_path, case) == FIELD_SOLVE[case]


# recorded with strongly_graded_check dispatching on the fixture a second
# time; group-ring grades are words ("a B"), the other fixtures' are ints
GRADED_VERIFY = {
    ("group-ring",): "b6a8381407e6645da2eaac59831ac575261addd93acf072f00c7b517aad68d7c",
    ("group-ring", "a B"): "cfc41c3d770567e7c2b3a4a56b68570f6c5fc9dc2d30f78e3b8eef79e58edd5c",
    ("sign-graded",): "0851f4de42da713fef1f5acc91559a0b6914fc87df4b72124d615f8d70c0bc22",
    ("sign-graded", "1"): "92fd20dc3f0d257e95700de1c44427995b6cdfe49afc3a93150e95aff04009b9",
    ("sign-graded", "3"): "c0aff46a4fe64556145dca52a881add7723a33128e9ed3f934c76ff7290049bd",
    ("sign-graded", "0"): "fbedd69e0c540a9c48ec2076673d553cdddf92f6b7cf78f1647e44c47183c367",
    ("intconst-poly",): "f0a7785c47e9b9c3670d4e9adbf1c0daace62fb182cd9b515bea3ff214061183",
    ("intconst-poly", "1"): "7f53418c875fa3a64dc1d11615079da7b0d98d5bf778f6d3206e4d31cd3c77ec",
    ("intconst-poly", "3"): "d79ab7ef303c844bfc48d65253a50e64561f58e964244a07b444c385e5b5b91c",
    ("intconst-poly", "0"): "dd214a3d1af5361a5609ec0635296153744c575e054c6f7dd8b1b5c1b0024cec",
}


@pytest.mark.parametrize("case", sorted(GRADED_VERIFY), ids=" ".join)
def test_graded_verify_outputs(tmp_path, case):
    fixture, *grade = case
    out = str(tmp_path / "out.json")
    argv = ["graded-verify", "--fixture", fixture] + (["--g", *grade] if grade else [])
    assert main(argv + ["--out", out]) == 0
    with open(out) as fh:
        assert digest(json.load(fh)) == GRADED_VERIFY[case]


S3 = {"family": "symmetric", "n": 3}
INPUT_FILES["ideal"] = {
    "readme": {"group": {"family": "abelian", "rank": 1}, "h": [[2]], "k": [[3]],
               "r": [[[0], "1"], [[2], "-1"]]},
    "h_in_k": {"group": {"family": "abelian", "rank": 1}, "h": [[4]], "k": [[2]]},
    "k_in_h": {"group": S3, "h": [[2, 1, 3], [2, 3, 1]], "k": [[2, 3, 1]]},
    "incomparable": {"group": S3, "h": [[2, 1, 3]], "k": [[2, 3, 1]]},
    "equal": {"group": S3, "h": [[2, 3, 1]], "k": [[3, 1, 2]]},
    # a cyclic group is written back in the "finite" table form
    "cyclic": {"group": {"family": "cyclic", "n": 6}, "h": [2], "k": [3],
               "r": [[0, "1"], [2, "-1"]]},
}
INPUT_FILES["folner"]["readme"] = {
    "group": {"family": "abelian", "rank": 2},
    "s": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
    "ratio": "2",
    "budget": 20,
}

# recorded with distinguish_subgroups' two mirrored sampling loops; the
# relation each case reaches is in its name (the README's and the cyclic
# one's are incomparable); ideal cyclic before groups took equality from a key
IDEAL_AND_FOLNER = {
    "ideal readme": "976a6d25ed7929860644b66d2060d1dca3e19c112f3488e1487c9e01a8f5cc90",
    "ideal h_in_k": "0b7d967d82fea551aef2d371f224b9807cc9d60209a20c6358eba1e859ff61cb",
    "ideal k_in_h": "1b3d272374115cec0c5137efe8af97c2d59670c593fe7ff1388ef7811c03b678",
    "ideal incomparable": "a5338da8d187cc4da97a57d6f63606c385d272d00aa8aeb78e2a6b4ae6263302",
    "ideal equal": "6b68d8346aebce1a7b524f85ef35c724ee3d1d0437cbae7442dbf9e1d38557c9",
    "ideal cyclic": "f5bd5931626a66dc88e746b5121675b7b81e62ea66072e9e5ee2656bf102ecd8",
    "folner readme": "4db9a9aaeff37f5c2c56a0c98aacf33986831627e30bc2235e3b6838aae751dd",
}


@pytest.mark.parametrize("case", sorted(IDEAL_AND_FOLNER))
def test_ideal_and_folner_outputs(tmp_path, case):
    assert run_input_file(tmp_path, case) == IDEAL_AND_FOLNER[case]
