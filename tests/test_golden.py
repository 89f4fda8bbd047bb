"""Byte-level pins of what every subcommand writes.

Each case runs ``cli.main`` in process, in a fresh working directory and
with relative paths, so a manifest names the same files on every run.  The
pins are the exit code of each case and the SHA-256 of its stdout, its
stderr and every file it names after ``-o``, ``--reports``,
``--group-output`` or ``--manifest`` ("absent" for a file it must not
write).  A change to the command-line layer must reproduce them byte for
byte; only a deliberate change of an output may edit a pin.
"""

import hashlib
import io
import json

from acygroups import groups
from acygroups.cli import main

SQUARE = {"format": "egraph", "vertices": ["0", "1", "2", "3"], "colors": ["a", "b"],
          "edges": [["a", "0", "1"], ["a", "2", "3"], ["b", "0", "2"], ["b", "1", "3"]]}
CUBE = {"format": "egraph", "vertices": [str(v) for v in range(8)], "colors": ["a", "b", "c"],
        "edges": [[c, str(v), str(v | bit)] for bit, c in ((1, "a"), (2, "b"), (4, "c"))
                  for v in range(8) if not v & bit]}
TRIANGLE = {"format": "hypergraph", "vertices": ["0", "1", "2"],
            "hyperedges": [["0", "1"], ["1", "2"], ["0", "2"]]}
TRIANGLE_TEMPLATE = {"format": "egraph", "vertices": ["h0", "h1", "h2"],
                     "colors": ["e0~1", "e0~2", "e1~2"],
                     "edges": [["e0~1", "h0", "h1"], ["e0~2", "h0", "h2"], ["e1~2", "h1", "h2"]]}
K3 = {"format": "graph", "vertices": ["0", "1", "2"], "edges": [["0", "1"], ["0", "2"], ["1", "2"]]}
K3_TEMPLATE = {"format": "egraph", "vertices": ["0", "1", "2"], "colors": ["0~1", "0~2", "1~2"],
               "edges": [["0~1", "0", "1"], ["0~2", "0", "2"], ["1~2", "1", "2"]]}
PATTERN = {"format": "pattern", "sites": ["s", "t"],
           "edges": [{"id": "e", "src": "s", "tgt": "t", "inv": "f"},
                     {"id": "f", "src": "t", "tgt": "s", "inv": "e"}]}
PAW = {"format": "graph", "vertices": ["v0", "v1", "v2", "v3"],
       "edges": [["v0", "v1"], ["v1", "v2"], ["v1", "v3"], ["v2", "v3"]]}
PAW_TEMPLATE = {"format": "egraph", "vertices": ["v0", "v1", "v2", "v3"],
                "colors": ["v0~v1", "v1~v2", "v1~v3", "v2~v3"],
                "edges": [["v0~v1", "v0", "v1"], ["v1~v2", "v1", "v2"], ["v1~v3", "v1", "v3"],
                          ["v2~v3", "v2", "v3"]]}
IGRAPH = {"format": "igraph", "pattern": PATTERN, "vertices": ["s", "t"], "site_of": ["s", "t"],
          "edges": {"e": [["s", "t"]], "f": [["t", "s"]]}}
# the pattern of PATTERN with its incidences swapped, e: t -> s
OTHER_IGRAPH = {"format": "igraph", "vertices": ["s", "t"], "site_of": ["s", "t"],
                "pattern": {"format": "pattern", "sites": ["s", "t"],
                            "edges": [{"id": "e", "src": "t", "tgt": "s", "inv": "f"},
                                      {"id": "f", "src": "s", "tgt": "t", "inv": "e"}]},
                "edges": {"e": [["t", "s"]], "f": [["s", "t"]]}}
DOCS = {
    "square.json": SQUARE,
    "cube.json": CUBE,
    "tri.json": TRIANGLE,
    "tri_t.json": TRIANGLE_TEMPLATE,
    "k3.json": K3,
    "k3_t.json": K3_TEMPLATE,
    "paw.json": PAW,
    "paw_t.json": PAW_TEMPLATE,
    "p.json": PATTERN,
    "ig.json": IGRAPH,
    "ig_other.json": OTHER_IGRAPH,
    "base_cov.json": {"format": "covering", "kind": "hypergraph", "cover": TRIANGLE},
    "no_cover.json": {"format": "covering", "kind": "graph"},
}

# (case, argv) in order: later cases read what earlier ones wrote
CASES = (
    ("biggs", "biggs -E a,b -n 1 -o tree.json --manifest m_biggs.json"),
    ("biggs-stdout", "biggs -E a,b,c -n 2"),
    ("symgroup-stdin", "symgroup - --no-hypercube --manifest m_stdin.json"),
    ("symgroup", "symgroup tree.json --no-hypercube -o s3.json --manifest m_symgroup.json"),
    ("symgroup-square", "symgroup square.json --no-hypercube -o square_g.json"),
    ("symgroup-cube", "symgroup cube.json --no-hypercube -o cube_g.json"),
    ("symgroup-hypercube", "symgroup tri_t.json -o tri_g.json --manifest m_tri_g.json"),
    ("symgroup-k3", "symgroup k3_t.json -o k3_g.json"),
    ("cayley", "cayley s3.json --manifest m_cayley.json"),
    ("girth", "girth s3.json -o girth.json --manifest m_girth.json"),
    ("check-holds", "check-acyclic s3.json -N 5 --manifest m_holds.json"),
    ("check-witness", "check-acyclic s3.json -N 6 -o w.json --manifest m_witness.json"),
    ("check-gamma", "check-acyclic s3.json -N 6 --gamma 2 --manifest m_gamma.json"),
    ("verify-witness", "verify-witness w.json s3.json --manifest m_verify.json"),
    ("verify-witness-other-group", "verify-witness w.json square_g.json --manifest m_other.json"),
    ("construct", "construct square_g.json -N 4 -o c.json --reports c_reports.json"
                  " --manifest m_construct.json"),
    ("construct-stderr", "construct square_g.json -N 3 --early-exit --manifest m_c3.json"),
    ("construct-capped", "construct cube_g.json -N 4 --early-exit --cap 300 -o capped.json"
                         " --reports capped_reports.json --manifest m_capped.json"),
    ("construct-capped-stderr", "construct cube_g.json -N 4 --early-exit --cap 300"
                                " --manifest m_capped_stderr.json"),
    ("construct-capped-first-stage", "construct cube_g.json -N 4 --cap 100"
                                     " --reports first_reports.json --manifest m_first.json"),
    ("construct-over", "construct tri_g.json -N 4 --over tri_t.json --early-exit -o tri_good.json"
                       " --manifest m_over.json"),
    ("check-over-holds", "check-acyclic tri_good.json -N 4 --over tri_t.json"
                         " --manifest m_over_holds.json"),
    ("check-over-witness", "check-acyclic tri_g.json -N 4 --over tri_t.json -o tw.json"
                           " --manifest m_over_witness.json"),
    ("verify-witness-over", "verify-witness tw.json tri_g.json --over tri_t.json"
                            " --manifest m_verify_over.json"),
    ("groupoid-construct", "groupoid-construct p.json -N 2 --early-exit -o gpd.json"
                           " --group-output gpd_g.json --manifest m_gpd.json"),
    ("groupoid-construct-target", "groupoid-construct p.json --target ig.json -N 2 --early-exit"
                                  " --manifest m_gpd_target.json"),
    ("groupoid-construct-capped", "groupoid-construct p.json -N 3 --cap 50 -o gpd_capped.json"
                                  " --manifest m_gpd_capped.json"),
    ("groupoid-construct-other-pattern", "groupoid-construct p.json --target ig_other.json -N 2"
                                         " --manifest m_gpd_other.json"),
    ("cover-graph", "cover-graph k3.json k3_g.json -o k3_cov.json --manifest m_cover_graph.json"),
    ("verify-cover-graph", "verify-cover k3_cov.json -N 5 --manifest m_vc_graph.json"),
    ("verify-cover-graph-fails", "verify-cover k3_cov.json -N 6 -o vc_fails.json"
                                 " --manifest m_vc_fails.json"),
    ("symgroup-paw", "symgroup paw_t.json -o paw_g.json"),
    ("cover-graph-paw", "cover-graph paw.json paw_g.json -o paw_cov.json"),
    ("verify-cover-paw-holds", "verify-cover paw_cov.json -N 5 --manifest m_vc_paw.json"),
    ("verify-cover-paw-fails", "verify-cover paw_cov.json -N 6 --manifest m_vc_paw_fails.json"),
    ("cover-hypergraph", "cover-hypergraph tri.json tri_good.json -o tri_cov.json"
                         " --manifest m_cover_hg.json"),
    ("verify-cover-hypergraph", "verify-cover tri_cov.json -N 4 --manifest m_vc_hg.json"),
    ("verify-cover-base", "verify-cover base_cov.json -N 3 --manifest m_vc_base.json"),
    ("export-dot-egraph", "export-dot tree.json --manifest m_dot.json"),
    ("export-dot-graph", "export-dot k3.json"),
    ("export-dot-hypergraph", "export-dot tri.json -o tri.dot"),
    ("export-dot-igraph", "export-dot ig.json"),
    ("export-dot-graph-cover", "export-dot k3_cov.json -o k3_cov.dot --manifest m_dot_cov.json"),
    ("export-dot-hypergraph-cover", "export-dot tri_cov.json -o tri_cov.dot"),
    ("wrong-format", "symgroup s3.json --manifest m_wrong.json"),
    ("wrong-template", "construct tri_g.json -N 3 --over s3.json --manifest m_wrong_t.json"),
    ("no-dot-form", "export-dot s3.json --manifest m_no_dot.json"),
    ("verify-cover-not-covering", "verify-cover s3.json -N 3 --manifest m_not_cov.json"),
    ("verify-cover-without-cover", "verify-cover no_cover.json -N 3"),
    ("cover-graph-wrong-group", "cover-graph k3.json s3.json -o bad_cov.json"
                                " --manifest m_bad_cov.json"),
    ("missing-file", "cayley missing.json --manifest m_missing.json"),
    ("usage", "construct s3.json -N 1 --manifest m_usage.json"),
    ("symgroup-capped", "symgroup cube.json -o capped_g.json --manifest m_capped_g.json"),
)
SMALL_CAP = {"symgroup-capped"}  # cases run with an element cap of 5
FILE_FLAGS = ("-o", "--reports", "--group-output", "--manifest")


def run_cases(cases, capsys, monkeypatch, tmp_path):
    """{"<case> <what>": pin} of every case, written under tmp_path."""
    monkeypatch.chdir(tmp_path)
    for name, doc in DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    record = {}
    for case, command in cases:
        argv = command.split()
        if argv[1] == "-":
            monkeypatch.setattr("sys.stdin", io.StringIO((tmp_path / "tree.json").read_text()))
        with monkeypatch.context() as patch:
            if case in SMALL_CAP:
                patch.setattr(groups, "DEFAULT_ELEMENT_CAP", 5)
            record[f"{case} exit"] = main(argv)
        captured = capsys.readouterr()
        for stream, text in (("stdout", captured.out), ("stderr", captured.err)):
            if text:
                record[f"{case} {stream}"] = hashlib.sha256(text.encode()).hexdigest()
        for flag, path in zip(argv, argv[1:]):
            if flag in FILE_FLAGS:
                target = tmp_path / path
                record[f"{case} {path}"] = (hashlib.sha256(target.read_bytes()).hexdigest()
                                            if target.exists() else "absent")
    return record


def test_every_subcommand_writes_its_pinned_bytes(capsys, monkeypatch, tmp_path):
    assert run_cases(CASES, capsys, monkeypatch, tmp_path) == PINS


PINS = {
    "biggs exit": 0,
    "biggs tree.json": "bc6901353468692e62936f78fe4f09cea982961850c50da561ad43c7dc6e338d",
    "biggs m_biggs.json": "75ab486294092d3e2d7cd83f2c4366dfa471fc29f2c02a9161f136d80024baba",
    "biggs-stdout exit": 0,
    "biggs-stdout stdout": "88cd3340ddec9c284cc960e22786be619baaf66a2552a9e3362b3ad72f40111a",
    "symgroup-stdin exit": 0,
    "symgroup-stdin stdout": "93cdf93411dfa4f87b73ba19575599c7e094bd9cdb5b4adacb8f558604dc0b1d",
    "symgroup-stdin m_stdin.json":
        "d7f6f8565977527fee4077c4b9494f57ff4c3b1bbb85bbb8a0ad3589cc2761ed",
    "symgroup exit": 0,
    "symgroup s3.json": "93cdf93411dfa4f87b73ba19575599c7e094bd9cdb5b4adacb8f558604dc0b1d",
    "symgroup m_symgroup.json": "dd69202aec920469292078c3907ac7595192c651a794df15117ab71575daa3b3",
    "symgroup-square exit": 0,
    "symgroup-square square_g.json":
        "7d64c7dc666c7134ad4172b20bef49dc55ca76d6c4ac09f38977f074cecd16d7",
    "symgroup-cube exit": 0,
    "symgroup-cube cube_g.json":
        "2d951df65cf87a2fddafcba735c4559de788f788aaa7cb8d0230264f8d8c7ecf",
    "symgroup-hypercube exit": 0,
    "symgroup-hypercube tri_g.json":
        "bd83388d45a6b9767982898281d7e6de1e34c371379781b346adbfa030004a64",
    "symgroup-hypercube m_tri_g.json":
        "0cbd54355b158524158ac0fb1715e18a807b48c0b43d061ebf0997c58c918b5f",
    "symgroup-k3 exit": 0,
    "symgroup-k3 k3_g.json": "f142bad408ddb49457d178e584637ab3de33d4ad4dbbe5a53fe0c41f25747cd9",
    "cayley exit": 0,
    "cayley stdout": "eba163f1aefb70fe7998fc558de480e4d75dabe95a7f3a9a8819ffd0328325d7",
    "cayley m_cayley.json": "f320668c22e8af2d8ade6f63a395e173adc179b0998156e4ed0102c12d9b405d",
    "girth exit": 0,
    "girth girth.json": "27b5d8bb5ee1d62a65e98dcbd72da47e6358b40f04cab422ebca744a357e3afb",
    "girth m_girth.json": "60dc692294338c536174c611106a0a3a80e01ff45596673eec58e99b54573607",
    "check-holds exit": 0,
    "check-holds stdout": "26f89123242853526c3847ff8ef7f623e7e1cab6b8af7cf127fbd6c60aea5f26",
    "check-holds m_holds.json": "c50513b36c2a31a80408739f48d119d9ae0075f2909a8d3ed4b01cd0b8757686",
    "check-witness exit": 1,
    "check-witness w.json": "77241ffbae55dae5073fadef9a16794094fb9bf1dad702252741b491efbc462e",
    "check-witness m_witness.json":
        "11d09a530f65d6550a1012845e2d0aff2f785fb345ae67341240b3891e94d5dd",
    "check-gamma exit": 1,
    "check-gamma stdout": "77241ffbae55dae5073fadef9a16794094fb9bf1dad702252741b491efbc462e",
    "check-gamma m_gamma.json": "6c3f9412182b2bf79ccb2e0e7104647544a659bfae6b5ea9a7e4b7398e48a2d0",
    "verify-witness exit": 0,
    "verify-witness stdout": "d69a25bc17f62315b5e768ed9a37a5d3305de35806e7737ace919ed96b860a1d",
    "verify-witness m_verify.json":
        "edb2a5e7b69f8c82c4f04645b9fad20a0358047398c421a824c685af2291bb19",
    "verify-witness-other-group exit": 3,
    "verify-witness-other-group stderr":
        "f4851d109f9b01bb9d3a1a0d0c37bd97176bc177e2bacc58657b07dd137afb5d",
    "verify-witness-other-group m_other.json": "absent",
    "construct exit": 0,
    "construct c.json": "2bf26f5961c671774444d135292af77e734731827ed6f4ded357174beebe53a1",
    "construct c_reports.json": "b7286cf23c9c627cb4cea7d17867767d8932833c1fdd306dc3ec8ebd1194b6aa",
    "construct m_construct.json":
        "949e12560a0de15a2d44b29bc06e0e625888cc3e69085e1db344c02b15e41d85",
    "construct-stderr exit": 0,
    "construct-stderr stdout": "7d64c7dc666c7134ad4172b20bef49dc55ca76d6c4ac09f38977f074cecd16d7",
    "construct-stderr stderr": "452e52043749c8ec60943ca7e1d86738f7809366f4e5c63f59ec3d8eafdd586e",
    "construct-stderr m_c3.json":
        "c23ffc25df53d945afaf096a4e44f839b7c3c35bf177cf038569a21f7328ce2c",
    "construct-capped exit": 2,
    "construct-capped stderr": "869f78510028f13d795c8938fa2c40a6322cafa00c12723c3296f2be62869482",
    "construct-capped capped.json": "absent",
    "construct-capped capped_reports.json":
        "96fb91eac4d89886a4f44fe291d479fd0405066d733a1e0933e0eba6f5185e39",
    "construct-capped m_capped.json":
        "36ceac2f95bec56b382c350ed3855816101571ccf08d3f1b2d6637374135302c",
    "construct-capped-stderr exit": 2,
    "construct-capped-stderr stderr":
        "038335289570243cf7a4252d42f670b5966894c6e569b53679cc77dcf92f76a7",
    "construct-capped-stderr m_capped_stderr.json":
        "997cafde69ee7f8a59ff8ec536d0f70ee06f4ae2f9801c9eee5352d0a886daeb",
    "construct-capped-first-stage exit": 2,
    "construct-capped-first-stage stderr":
        "18d148abd11eae3f66e2db641e26679916d21dd53814b985fc81c8dbe3c165e0",
    "construct-capped-first-stage first_reports.json":
        "5eb86d5bd0c4cc42c84ecc8bdb8e4256d89dddb498a7e2604324190a5df8204e",
    "construct-capped-first-stage m_first.json":
        "40dbcb82487c59fff65c2a36764a2b0404ff9d53ff3d1aef46fd5452c76a386d",
    "construct-over exit": 0,
    "construct-over stderr": "f664624800f21389c893449cd1df34332c1b0838420307a5626d8239f0e6fbed",
    "construct-over tri_good.json":
        "b0900887f89cdccb40d2af4890061523c24c8a04aa07d5231d70b5844a7129e0",
    "construct-over m_over.json":
        "6061d93cc8a45788d31bd4296ae5c07c8da6cd9d22959f6c281a091e336067cc",
    "check-over-holds exit": 0,
    "check-over-holds stdout": "16eb906d1b7a3eca8b9b745f27dc69869f43ea0c4f63ae8eb6736e3702a9b15e",
    "check-over-holds m_over_holds.json":
        "75af49dbcca4c286a32123945f72f7864b927db40e4bc4d3ec273653f26ce077",
    "check-over-witness exit": 1,
    "check-over-witness tw.json":
        "606b3069d2bc439223bad00e95ce224cc45d9a8866ea16e3b42bba83674072ee",
    "check-over-witness m_over_witness.json":
        "5a243595951edffcb6dd9667a507bc9ca5cad4deb286d3a37ffd6c9be35f9fce",
    "verify-witness-over exit": 0,
    "verify-witness-over stdout":
        "d69a25bc17f62315b5e768ed9a37a5d3305de35806e7737ace919ed96b860a1d",
    "verify-witness-over m_verify_over.json":
        "4a418a13cb7a39c11cf76d4dfffd07893d834ce042ea55d17a88ba2a14c07e5c",
    "groupoid-construct exit": 0,
    "groupoid-construct stderr":
        "5f300435ead5f91e0a4a4fda4f92381ecbca87d7dd2350efe8be4882a1b71923",
    "groupoid-construct gpd.json":
        "fdf132e7665fd2274a4cefba7b02a839651c8eff0c7380b89ea426a1adb3199f",
    "groupoid-construct gpd_g.json":
        "40ba06616aba296d93c96014c4bf85729ceddc314cf4a4562149aaa36c07ac82",
    "groupoid-construct m_gpd.json":
        "3902b3560e3f966e5522b754362efdb17a58b5a3e03fcef8dbbd2c03997c71b3",
    "groupoid-construct-target exit": 0,
    "groupoid-construct-target stderr":
        "5f300435ead5f91e0a4a4fda4f92381ecbca87d7dd2350efe8be4882a1b71923",
    "groupoid-construct-target stdout":
        "fdf132e7665fd2274a4cefba7b02a839651c8eff0c7380b89ea426a1adb3199f",
    "groupoid-construct-target m_gpd_target.json":
        "5694f77f527da845d9b469c2abd532e9e93e2fbf60ddc63163bcf23f9f34a424",
    "groupoid-construct-capped exit": 2,
    # --cap reaches the start group, whose order bound (at least 54) refuses it
    "groupoid-construct-capped stderr":
        "af15fc5eae01f48be762bf5ec7ab8ea6ba9c5d9276d8e943472ec5b52ac7f91b",
    "groupoid-construct-capped gpd_capped.json": "absent",
    "groupoid-construct-capped m_gpd_capped.json":
        "fc01f64e0698fe9ca4e74d7794a9792790b6fc84da27d1fad5d844cccae9fea6",
    "groupoid-construct-other-pattern exit": 3,
    "groupoid-construct-other-pattern stderr":
        "65624403f5d43bba6b4c847a4bda1f369d14791ef3fc1c3bde95d7e8b5a3ff9c",
    "groupoid-construct-other-pattern m_gpd_other.json": "absent",
    "cover-graph exit": 0,
    "cover-graph k3_cov.json": "44358ddfa9268484fc013dfd890849cbecd9a74ac96402553039f4ef09bce074",
    "cover-graph m_cover_graph.json":
        "cb8b8d3a82f131751ed01fd9ce7e51dd19cbcd9f981329c2930e0016aac6fb28",
    "verify-cover-graph exit": 0,
    "verify-cover-graph stdout":
        "cd220813b0cfc44d1669dab2a47d87c26fbb138bd7ca264b95ffe888d97b7aa9",
    "verify-cover-graph m_vc_graph.json":
        "969e38c5ca9046001429e4db1c1bc33d143fdf86ed32fec74c76f9e68484728c",
    "verify-cover-graph-fails exit": 1,
    "verify-cover-graph-fails vc_fails.json":
        "e89c2e85bfc36c619adec25519763ed2ffbbe14b33160ef1b171257aa324aaff",
    "verify-cover-graph-fails m_vc_fails.json":
        "9f10e4adafe311fe3722061585573c5b4031fdccb6c8e36427f05130a470de3d",
    "symgroup-paw exit": 0,
    "symgroup-paw paw_g.json": "8ccef2daa83d3a5b058ffa5c55da08780fbffaa9cb9b51655628eaac563eb051",
    "cover-graph-paw exit": 0,
    "cover-graph-paw paw_cov.json":
        "9b03cfc2a74cf0d21213b4dc954048a4407a5d67e95205976e8633004d72e91e",
    "verify-cover-paw-holds exit": 0,
    "verify-cover-paw-holds stdout":
        "cd220813b0cfc44d1669dab2a47d87c26fbb138bd7ca264b95ffe888d97b7aa9",
    "verify-cover-paw-holds m_vc_paw.json":
        "f16104a40ac16b8304d9e609f491379209d1f280d90e04bff041cdf41876decf",
    "verify-cover-paw-fails exit": 1,
    "verify-cover-paw-fails stdout":
        "e89c2e85bfc36c619adec25519763ed2ffbbe14b33160ef1b171257aa324aaff",
    "verify-cover-paw-fails m_vc_paw_fails.json":
        "978cb80c5b5abbd7ef9050b4a9e4862e2c422521bab1ab172b92e5806a5943b9",
    "cover-hypergraph exit": 0,
    "cover-hypergraph tri_cov.json":
        "6b7eca423f29ad2f265624c4a48d2e23305e8ed7892a543625c23ac1b0b4e52d",
    "cover-hypergraph m_cover_hg.json":
        "c6e73b670f97c4ebef7f8ab67292bd75f8703d353395c66082702ad62a85d4f0",
    "verify-cover-hypergraph exit": 0,
    "verify-cover-hypergraph stdout":
        "16eb906d1b7a3eca8b9b745f27dc69869f43ea0c4f63ae8eb6736e3702a9b15e",
    "verify-cover-hypergraph m_vc_hg.json":
        "d928345f30b04359ab6dcbdb3ef986d4e39e17be3f1115568dfa2ea35f386c00",
    "verify-cover-base exit": 1,
    "verify-cover-base stdout": "6f8ef59514163d5b107733b8b74ffe821dd314699c3aa00ccb18dd03017c917d",
    "verify-cover-base m_vc_base.json":
        "8afe5adcc27b5c9389852fed66f3bf322f837e82e02f978de9f801b903d6e072",
    "export-dot-egraph exit": 0,
    "export-dot-egraph stdout": "151f4805da533c6d02e7bab1d325dc93fbbac91b8b39ba53a7fb74cc6990ae53",
    "export-dot-egraph m_dot.json":
        "cc09db86264f5d82703a8b43aeac62f5872fd97e9aee7cb73f2f2333726bd9dc",
    "export-dot-graph exit": 0,
    "export-dot-graph stdout": "53a5c63c71d775e549f9cba328f3bbb3733d608785c5b6398cae7caad4206b33",
    "export-dot-hypergraph exit": 0,
    "export-dot-hypergraph tri.dot":
        "c19bc73435d897fc35686fc098300b4509a33c2db3e31fa7c06e63d4f57e88a9",
    "export-dot-igraph exit": 0,
    "export-dot-igraph stdout": "e8f9aab61a4affb3f14114164d266f44a06af9172cc2238260e6517627d357ea",
    "export-dot-graph-cover exit": 0,
    "export-dot-graph-cover k3_cov.dot":
        "85a999798eb1ef34839440ae9553cfbcf96c3956dfc8098abb9fa74728442ba8",
    "export-dot-graph-cover m_dot_cov.json":
        "9c9d8e19288371f1af1eee704b0c36d346273a2e5ffbfca60291875c396c2361",
    "export-dot-hypergraph-cover exit": 0,
    "export-dot-hypergraph-cover tri_cov.dot":
        "f62273f3e435f2eb270d09564449125110fb74eb4299d7dc2265d7946f76b70d",
    "wrong-format exit": 3,
    "wrong-format stderr": "e86d6427769ec684c2aae0b8f423761aaf0abe812ba022b74fb51306b47142b5",
    "wrong-format m_wrong.json": "absent",
    "wrong-template exit": 3,
    "wrong-template stderr": "e86d6427769ec684c2aae0b8f423761aaf0abe812ba022b74fb51306b47142b5",
    "wrong-template m_wrong_t.json": "absent",
    "no-dot-form exit": 3,
    "no-dot-form stderr": "a3763c00bb0bd6b7be7dfdd59849d67d254ad14ceff4c275180a344666521eac",
    "no-dot-form m_no_dot.json": "absent",
    "verify-cover-not-covering exit": 3,
    "verify-cover-not-covering stderr":
        "c5f43e6baaa70e6acfdc7f6eacb4a9e188ad9b3ae582616db5294e502e872fd4",
    "verify-cover-not-covering m_not_cov.json": "absent",
    "verify-cover-without-cover exit": 3,
    "verify-cover-without-cover stderr":
        "55ced8afc04e92d7421bc31708152d66ac930a68ec948c33203b4479239c28fd",
    "cover-graph-wrong-group exit": 3,
    "cover-graph-wrong-group stderr":
        "ce9432bf804ee117ae530a71742b5360993ec449f16dc236ac10fe692d7a1c2d",
    "cover-graph-wrong-group bad_cov.json": "absent",
    "cover-graph-wrong-group m_bad_cov.json": "absent",
    "missing-file exit": 3,
    "missing-file stderr": "bc59e25ceba6e85d4d8cbc5ef653e133d76654f14a88249ecc17d600c44beb77",
    "missing-file m_missing.json": "absent",
    "usage exit": 3,
    "usage stderr": "6420bef529e9d43d8022caa4bd56557872da16552f190a52b951b0ce8b3a372b",
    "usage m_usage.json": "absent",
    "symgroup-capped exit": 2,
    "symgroup-capped stderr": "2da9535ac0a7a8ed8998b20eb44d5c450cc6e8e57e8231895117d1fb4764b32c",
    "symgroup-capped capped_g.json": "absent",
    "symgroup-capped m_capped_g.json": "absent",
}
