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
