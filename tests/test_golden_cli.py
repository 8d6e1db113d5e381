"""Golden lock: stdout sha256 of in-process ``deepnote`` commands.

Each command runs at small parameters through :func:`repro.cli.main`
and its stdout digest must match the pinned value exactly, so any
refactor of the physics, I/O or runtime layers that moves a single
printed digit fails here.  ``table3`` runs twice: to a 1 s watch
deadline, which every victim survives, and in full, to the crashes
(the RocksDB victim's WAL-sync abort at 81.3 s among them), whose
digest is also the end-to-end benchmark's pin.  Traced commands also
pin the bytes of the files they write: a ``ycsb`` Chrome trace, and
the Chrome trace and Prometheus dump of a short Figure 2 sweep at both
trace detail levels, which walks every drive command, timeouts and
retries included.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

FIGURE2 = ["figure2", "--runtime", "0.2", "--seed", "7"]
FIGURE2_DIGEST = "236ce20444ab4c44437a5b92050883053f5c5a6d8bf0d9f3babc2f49ee14214d"
YCSB = ["ycsb", "--warmup", "1", "--attack", "1.5", "--recovery", "1", "--records", "150"]

GOLDENS = [
    (FIGURE2, FIGURE2_DIGEST),
    (
        FIGURE2 + ["--csv", "write"],
        "4bc39a02f9514d5a9c5d5b91654ed07c67c33ca23b9dbfaae2877c4832439838",
    ),
    (FIGURE2 + ["--workers", "2"], FIGURE2_DIGEST),
    (
        ["table1", "--runtime", "0.2", "--seed", "7"],
        "8977a59282f270326f19c6e62edea8d5029b4659324a85c87a7b0cb591d01eb8",
    ),
    (
        ["table2", "--duration", "0.1", "--seed", "7"],
        "43734f329bb1e5808ba637282b2c4edd9cc18887713671ee2282fc126d6f6dd7",
    ),
    (
        ["ablations"],
        "b4d97302433bc63256f9ffbf39e0a81205634c841de0bbdc93c448f7f200e344",
    ),
    (
        ["predict", "--frequency", "650", "--distance", "0.1"],
        "3989f78ddd0db748fb0fbdde15d9e5f5378e0c6db697470dd86348a5ff1d0fbb",
    ),
    (
        ["rack", "--bays", "5"],
        "029073e7aa3391b163e153c720b233ae9316f0408f0327bf0830d0fb36b59d1c",
    ),
    (
        ["rack", "--bays", "5", "--sweep", "100", "4000", "10"],
        "1e2ae09f0f92c1b13d6a9bfc85575257e6a0745926b81bc53e6fac591a01309e",
    ),
    (
        ["fleet", "--racks", "2", "--towers", "5", "--duration", "12", "--rate", "40"],
        "3e7b2bab42d464d7be7cff10fbb707027afcd1b325fad96f6e93caa3791e1eb9",
    ),
    (YCSB, "09820dad603d9cd118f3d5c8aef7c32c4d279d16ad6437d73882c071aaf14479"),
    (
        ["smart", "--runtime", "0.5"],
        "ddcf80af9fddb535097400240981563c344d624b32aad8cf561ae22ff36cba0e",
    ),
    (
        ["table3", "--deadline", "1"],
        "45dbee90b9e24ccd6a1cae52b05a3720d9b4bb93ede8990a227ef8cda1041d1d",
    ),
    (
        ["table3"],
        "e838477368078ed81936f3309a6b3c12d24b9e76ae9b59288f5397c8dc5ecf9f",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDENS, ids=[" ".join(argv) for argv, _ in GOLDENS]
)
def test_stdout_digest(argv, digest, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trace_file_digest(tmp_path, capsys):
    # The file, not stdout: a traced ycsb also prints its series lines.
    path = tmp_path / "trace.json"
    assert main(YCSB + ["--trace", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "8cdcb1a92a100535e94d3fbf52e3b7be6c095f03d25d8471644f7df0c8b18f6d"


TRACED_FIGURE2 = ["figure2", "--runtime", "0.05", "--seed", "7"]


@pytest.mark.parametrize(
    "extra, digests",
    [
        (
            [],
            {
                "trace.json": "68a8345a11d6f12de042d3ad1e3a457d54230243b6f5c61813cde8004a69b5e5",
                "metrics.prom": "e6574edf552119d66b81c5a00d86609e4c557d0aa1e12d8d2f3533e0ea29ba2a",
            },
        ),
        (
            ["--trace-detail", "attempts"],
            {
                "trace.json": "ceeea71efd46731c7a95aadeeef83f05cc1b0d2f0f2887a0c2fde74f01734a17",
            },
        ),
    ],
    ids=["commands", "attempts"],
)
def test_traced_figure2_file_digests(extra, digests, tmp_path, capsys):
    # 70 timeouts and 71 retries: the error spans, the drive_errors_total
    # counts and the per-attempt spans of the command path.
    argv = TRACED_FIGURE2 + extra + ["--trace", str(tmp_path / "trace.json")]
    if "metrics.prom" in digests:
        argv += ["--metrics-out", str(tmp_path / "metrics.prom")]
    assert main(argv) == 0
    capsys.readouterr()
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
