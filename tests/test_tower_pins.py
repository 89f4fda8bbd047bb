"""Byte-level pins of the tower layer.

Every corpus group is grown at N = 3 and N = 4 with early exit, and the
triangle hypergraph's template tower at N = 4.  A tower that ends is pinned
by the SHA-256 of its group (``egroup_to_json``) and of its stage reports
(``reports_to_json``); a refused one by the SHA-256 of its message and of
its partial reports.  A refactor of the synthesis layer must reproduce them
byte for byte; only a deliberate change of a result may edit a pin.
"""

import hashlib

import pytest

from acygroups.covering import Hypergraph, intersection_graph
from acygroups.egraph import disjoint_union, hypercube
from acygroups.errors import ResourceCap
from acygroups.groups import sym
from acygroups.serialize import canonical_bytes, egroup_to_json, reports_to_json
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import corpus

# (corpus group, N): ("built", group, reports) or ("refused", message, reports)
CORPUS_PINS = {
    ('biggs_2_1', 3): (
        "built",
        "93cdf93411dfa4f87b73ba19575599c7e094bd9cdb5b4adacb8f558604dc0b1d",
        "b0019d5bf5252ca66ea34c7c1dfc4cc82c02164c21476bf76117d7e34753f3d1",
    ),
    ('biggs_2_1', 4): (
        "built",
        "93cdf93411dfa4f87b73ba19575599c7e094bd9cdb5b4adacb8f558604dc0b1d",
        "58a79f33743f3012e1bcc2122f2ee7606d7772bcadf5cb0734cda08601169ddf",
    ),
    ('biggs_2_2', 3): (
        "built",
        "0dc245b6a80baaafb3626b5d3733d2124481512f7c7ea5da00e2ba38b3f49f81",
        "e1c3df9b403f9d642983822c079b4a66f99de56f6c991f4dbd9ef648fc916c18",
    ),
    ('biggs_2_2', 4): (
        "built",
        "0dc245b6a80baaafb3626b5d3733d2124481512f7c7ea5da00e2ba38b3f49f81",
        "22061aa9b3e7f80a720fc612730f86fd303c3ccae8ce723b67743c3f0a6bfb49",
    ),
    ('biggs_3_1', 3): (
        "built",
        "48aa6fe320359cabbd63578df16c5c73d2ab55b89006db05408fb563a0887481",
        "62ec885780a7c41858de4a8af6139c02cb426abf2802674c4ff8a02f3c97d5bb",
    ),
    ('biggs_3_1', 4): (
        "built",
        "aaed5459546bdd682ea79883a1755dc4bd27bda4713324f9ad9952cd39bcf4dc",
        "f7694b03f4512e0e7072ba247debbfeae3dff9b83ef27d7f5620bb8458a50ccd",
    ),
    ('cube_1', 3): (
        "built",
        "ae4e348cbe8cff705d4126aa9fc008092b8be3cb4e21433aef6a7148eb88137d",
        "1548ff355a7fb7694f9938de259810c22240db9b7e0c0ee6fba487dfca98a571",
    ),
    ('cube_1', 4): (
        "built",
        "ae4e348cbe8cff705d4126aa9fc008092b8be3cb4e21433aef6a7148eb88137d",
        "64427b2636a88125702a4a4e03f54dda731d61683190d951d422c56e402bbbdf",
    ),
    ('cube_2', 3): (
        "built",
        "7d64c7dc666c7134ad4172b20bef49dc55ca76d6c4ac09f38977f074cecd16d7",
        "c5e9c9788797f6b54325f7d090d8611ce14547d2ca5e6db7c015b64e7409a9e6",
    ),
    ('cube_2', 4): (
        "built",
        "2bf26f5961c671774444d135292af77e734731827ed6f4ded357174beebe53a1",
        "b19898453710af48577cf0f4e18771b549baf541e476020006322de5fe206311",
    ),
    ('cube_3', 3): (
        "built",
        "2d951df65cf87a2fddafcba735c4559de788f788aaa7cb8d0230264f8d8c7ecf",
        "6f590f9e7d460b6d2a3797690c32541b9713a3d229697193621911d4963f5da0",
    ),
    ('cube_3', 4): (
        "refused",
        "24ce526769c2cc41a3af3c0162925c9b1025bc69d20fccd8f88d241764786fd2",
        "96fb91eac4d89886a4f44fe291d479fd0405066d733a1e0933e0eba6f5185e39",
    ),
    ('eight_cycle', 3): (
        "built",
        "d645c5aa062353e7072dc56cbdcd1ab5ee853ba332d1be949f0769851c4f5744",
        "6f590f9e7d460b6d2a3797690c32541b9713a3d229697193621911d4963f5da0",
    ),
    ('eight_cycle', 4): (
        "built",
        "d645c5aa062353e7072dc56cbdcd1ab5ee853ba332d1be949f0769851c4f5744",
        "9c53b07856244659108a62c1a311962f27a43289b969d395eb647857a1719855",
    ),
    ('path_aba', 3): (
        "built",
        "d645c5aa062353e7072dc56cbdcd1ab5ee853ba332d1be949f0769851c4f5744",
        "6f590f9e7d460b6d2a3797690c32541b9713a3d229697193621911d4963f5da0",
    ),
    ('path_aba', 4): (
        "built",
        "d645c5aa062353e7072dc56cbdcd1ab5ee853ba332d1be949f0769851c4f5744",
        "9c53b07856244659108a62c1a311962f27a43289b969d395eb647857a1719855",
    ),
    ('path_abab', 3): (
        "built",
        "0dc245b6a80baaafb3626b5d3733d2124481512f7c7ea5da00e2ba38b3f49f81",
        "e1c3df9b403f9d642983822c079b4a66f99de56f6c991f4dbd9ef648fc916c18",
    ),
    ('path_abab', 4): (
        "built",
        "0dc245b6a80baaafb3626b5d3733d2124481512f7c7ea5da00e2ba38b3f49f81",
        "22061aa9b3e7f80a720fc612730f86fd303c3ccae8ce723b67743c3f0a6bfb49",
    ),
    ('s3_three_gen', 3): (
        "built",
        "89e9e435787e8308c3aeca020aec6e0af82117de0da9e837dd6c964ac3c7bea2",
        "07d09ae7001e3bc41c6d72b905f4c20d0eecaabbed6bd0b50e7515ba139d2fb6",
    ),
    ('s3_three_gen', 4): (
        "refused",
        "24ce526769c2cc41a3af3c0162925c9b1025bc69d20fccd8f88d241764786fd2",
        "796ea8bf66b312926381ac3f91894964f680b43155d2810db88f53dcb04abafa",
    ),
    ('six_cycle', 3): (
        "built",
        "93cdf93411dfa4f87b73ba19575599c7e094bd9cdb5b4adacb8f558604dc0b1d",
        "b0019d5bf5252ca66ea34c7c1dfc4cc82c02164c21476bf76117d7e34753f3d1",
    ),
    ('six_cycle', 4): (
        "built",
        "93cdf93411dfa4f87b73ba19575599c7e094bd9cdb5b4adacb8f558604dc0b1d",
        "58a79f33743f3012e1bcc2122f2ee7606d7772bcadf5cb0734cda08601169ddf",
    ),
    ('tree_plus_cube', 3): (
        "built",
        "2bf26f5961c671774444d135292af77e734731827ed6f4ded357174beebe53a1",
        "3065262203aedc6268ff55d69040d2a8ed9bcfafa8f44204ee36e48994a437f5",
    ),
    ('tree_plus_cube', 4): (
        "built",
        "2bf26f5961c671774444d135292af77e734731827ed6f4ded357174beebe53a1",
        "c8ac86c31cc56833a835ca929fb481f939c177d74c2c2fdffa1af822d8a2b4dd",
    ),
}
TRIANGLE_PIN = (
    "built",
    "b0900887f89cdccb40d2af4890061523c24c8a04aa07d5231d70b5844a7129e0",
    "a1df73aa004c92b3419fcb1efc263088f9e1cb640b64ff1509973df0dee80a06",
)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _outcome(run):
    try:
        group, reports = run()
    except ResourceCap as exc:
        return ("refused", _sha(str(exc).encode()),
                _sha(canonical_bytes(reports_to_json(exc.stage_reports))))
    return ("built", _sha(canonical_bytes(egroup_to_json(group))),
            _sha(canonical_bytes(reports_to_json(reports))))


def test_every_corpus_group_is_pinned():
    assert {name for name, _ in CORPUS_PINS} == set(corpus())


@pytest.mark.parametrize("name,n", sorted(CORPUS_PINS))
def test_corpus_tower_is_byte_identical(small_groups, name, n):
    config = SynthesisConfig(n_acyclic=n, early_exit=True)
    got = _outcome(lambda: construct_n_acyclic(small_groups[name], config))
    assert got == CORPUS_PINS[name, n]


def test_triangle_template_tower_is_byte_identical():
    template = intersection_graph(Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]]))
    seed = sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)
    config = SynthesisConfig(n_acyclic=4, early_exit=True)
    assert _outcome(lambda: construct_n_acyclic(seed, config, template)) == TRIANGLE_PIN
