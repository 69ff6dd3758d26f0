"""Golden digests of the byte-stable `report` subtree of fast CLI commands.

Each digest is the sha256 of the report dumped with sorted keys and
compact separators, as the benchmark harness hashes it.  A refactor must
keep every digest; a change that means to alter a report re-records the
affected entries on purpose.  The sabotage commands pin their witnesses,
and with them the output of `torus_diff`.
"""

import hashlib
import json

import pytest

from hallq.cli import main

CATALOG = {"max_total": 3}

GOLDEN = [
    (["stables", "--seed", "0"], 0,
     "55082ecd4fb04de984a80071982f36ed057ffaeefcb46c60758b95b9d1995557"),
    (["hn", "--module", "R2,2", "--seed", "0"], 0,
     "c4d918f0826e3c2d7494dfa03d146664eab19f5fba2fbce366c8da6d5918716f"),
    (["ez", "--n", "3", "--trunc", "6", "--seed", "0"], 0,
     "107cd751138b36d5ef3b1d4d36cdad2ad27a04edc4e3fc565f1f650af60eef84"),
    (["hall", "S1", "R2,2", "--n", "3"], 0,
     "6e5cb240412d441a377f845c47e2330643cd2a964fd732783256d53e1d46b91b"),
    (["verify", "invariance", "--n", "3", "--trials", "3"], 0,
     "1ac174973c2b51f8c5f026a64436af377f72d799e46c79d5f0b2f1bac1cc6207"),
    (["verify", "cyclic", "--n", "3", "--trunc", "4"], 0,
     "2761a81f69609caaeed592ce194eedc1539592932af063a028a67d572fea4201"),
    (["verify", "hn-identity", "--n", "3", "--trials", "2"], 0,
     "39538bdcb7d161952d6ede910b0b4b950c197fa5bddb02c0afa8b19ff42e26d2"),
    (["verify", "pentagon", "--n", "3", "--trunc", "4"], 0,
     "bcaf00b75b88c979050007841719d832f55b234b7162c2fd17ef31607e31bbfc"),
    (["verify", "jacobian", "--n", "3", "--trials", "3"], 0,
     "a35819aff275a411306fe4439f9c43856693c91e8e8a08d84a3f4ff06e27e3a5"),
    (["verify", "integration", "--n", "3", "--config", CATALOG], 0,
     "92a09fec52611fb8c801ec1dcef9bf2701e32830fd4fd45f7de4b564ba70ffc4"),
    (["verify", "invariance", "--n", "3", "--trials", "2",
      "--sabotage", "include-delta"], 1,
     "dde479f05d7a0139228801b0bd06b756179ebee8cefbc2ad807cf160210085c4"),
    (["verify", "invariance", "--n", "3", "--trials", "2",
      "--sabotage", "reverse-order"], 1,
     "e81a36361b96f7ba8f938ebfb0267c300664cb12eed908aa97f4c2fad0a4a0ae"),
    (["verify", "cyclic", "--n", "3", "--sabotage", "drop-factor"], 1,
     "35c5edd5ff20cbd6ea0c23fe5bd802689cf111205baaa3d172bd40425669febe"),
    (["verify", "hn-identity", "--n", "3", "--trials", "1",
      "--sabotage", "flip-twist"], 1,
     "432f5e9dda9ae733efbc01212e984f7a92b0331aca3415cced4e685da551f930"),
    (["verify", "pentagon", "--n", "3", "--sabotage", "reverse-residual"], 1,
     "2a970ca0cbd96f4b47fb17853270ce5f39ea14c19f81b4c3e03d107ab136d7ce"),
    (["verify", "jacobian", "--n", "3", "--trials", "2",
      "--sabotage", "include-delta"], 1,
     "43fde91b5f55f96182b006df58618b957855c04b8fd8e94228303a716f3ad18d"),
    (["verify", "integration", "--n", "3", "--config", CATALOG,
      "--sabotage", "flip-twist"], 1,
     "45076a5076d54197702fd86a435b925680fa4372f09e0091ceb26ad82cab8e84"),
    # Uncapped witnesses: their diffs have 68, 65 and 65 terms, against
    # the 20 of the commands above without --verbose.
    (["verify", "cyclic", "--n", "3", "--sabotage", "drop-factor", "--verbose"], 1,
     "845cc6f258be79bd207c7806b2e79bec660177a6bad40843f3821ea3deb56714"),
    (["verify", "hn-identity", "--n", "3", "--trials", "1",
      "--sabotage", "flip-twist", "--verbose"], 1,
     "89c953d72f871d938063a3314df908b6451c217f2cc1ddaa049640a5165a0adc"),
    (["verify", "invariance", "--n", "3", "--trials", "2",
      "--sabotage", "reverse-order", "--verbose"], 1,
     "9a425d4ffd38e99f4403b163b1ef5031f588ebc19cd262b00f07735d3d60bdd9"),
    # Larger sizes, where most torus coefficients have several cyclotomic
    # factors in their denominators.
    (["ez", "--n", "5", "--trunc", "10", "--seed", "0"], 0,
     "9c41371d55c6c76628b702750b52700c8c458858b2d8466b642c05919cf3b6e6"),
    (["verify", "invariance", "--n", "4", "--trunc", "8", "--trials", "2"], 0,
     "6141ca71c5ade3e1eb2dee1eead07e84a6d58593ff3ac87f7b21ef75669dfd4f"),
    (["verify", "hn-identity", "--n", "4", "--trunc", "6", "--trials", "1"], 0,
     "9d4ed47ce8e91ad8b153d46a83ca2869071738668069ab35361adc0eda2e93c7"),
    (["verify", "hn-identity", "--n", "4", "--trunc", "6", "--trials", "1",
      "--sabotage", "flip-twist"], 1,
     "19f32a069b2bd66cb67ba3a9dd4497f2e9f0e174f9cceaf4b5e976239906dbdc"),
    (["verify", "invariance", "--n", "4", "--trunc", "6", "--trials", "2",
      "--sabotage", "include-delta"], 1,
     "2b7c2d16fd9c5235acb295f2e0e50c0030f8564153a978ff05615c14fef02f72"),
    # Stable censuses and filtrations at larger n, where the common
    # denominator of the charges is large and phases come close.
    (["stables", "--n", "32", "--seed", "0"], 0,
     "03279a730dfc8027dd58924ca5db3cdd1d215b38976286f908ce91c69d5e991f"),
    (["stables", "--n", "7", "--seed", "3"], 0,
     "c8c911eb8daabb135e7e0228eced61795a01618e614ce9ab78c7bfcd22b9725c"),
    (["hn", "--n", "4", "--seed", "1", "--module", "R1,4+R2,3"], 0,
     "c2074d513dad4b2a29c75b7df15fba1110afa6f7fa40613273c180aeecfd72bf"),
    (["hn", "--n", "6", "--seed", "2", "--module", "R1,6+R3,4"], 0,
     "36258a1fec1c00af9adc6509099535bb8d69f3d99e7c8e4d5a7133a68b4231b8"),
    (["verify", "hn-identity", "--n", "5", "--trunc", "6", "--trials", "2",
      "--seed", "9"], 0,
     "436bb66ca26c6e2f37bc9b0c64556b363f67e2edb545ff24329216a450868792"),
    (["verify", "jacobian", "--n", "3", "--trunc", "6", "--trials", "4",
      "--seed", "5"], 0,
     "adad04436050e0f82d3469ab4850ab864c1fd6cb5cc5c24f2ea0fcd3002976ad"),
    (["verify", "invariance", "--n", "5", "--trunc", "6", "--trials", "3",
      "--seed", "4"], 0,
     "ec3a085692d7c1457f8ff1dfff882d5eee811dac332d7d3786daa47c97efbd20"),
    # Dilogarithm products with coefficients at nonzero keys on both
    # sides, deep enough that the unit constant term meets high powers.
    (["verify", "invariance", "--n", "5", "--trunc", "10", "--trials", "2"], 0,
     "b5d22c018eea10498309ae96f175e50cf663bc0f3fff030e33c92e03d08e47e3"),
    (["verify", "cyclic", "--n", "5", "--trunc", "10", "--seed", "2"], 0,
     "931ae5da6710cc2faee9b616bc6eefc89b12be05e0a7056a0742c1d859e771d1"),
    # The cyclic verdict at the default seed, whose product has 3,003
    # terms: its element_sha256 pins the digest of a large element.
    (["verify", "cyclic", "--n", "5", "--trunc", "10", "--seed", "0"], 0,
     "5ebeeb20c3deab077b1356692b5cee425297de7fc6db674182a56d3f182f258b"),
    (["verify", "pentagon", "--n", "5", "--trunc", "8"], 0,
     "7f90e64fce10d4ef02c61dccfc22a3d4684adcc6ed45c2ef6e40b1b311f110d7"),
    (["verify", "hn-identity", "--n", "4", "--trunc", "8", "--trials", "1",
      "--seed", "3"], 0,
     "f6b199e1e34595010580bd4ec441268f338916dd4a795f1ca791d913581afd7a"),
]


def report_digest(report: dict) -> str:
    blob = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(a for a in argv if isinstance(a, str))
                              for argv, _, _ in GOLDEN])
def test_report_digest_is_pinned(argv, code, digest, capsys, tmp_path):
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    assert main(args) == code
    report = json.loads(capsys.readouterr().out)["report"]
    assert report_digest(report) == digest
