"""Pinned output bytes of density and pure runs through the command line.

Each case runs ``qwalksim`` and compares the SHA-256 of every file it
writes (the ``.meta.json`` records aside, which hold wall times) with a
digest recorded before the engine it runs was last rewritten for speed:
the density cases before the density engine learned to skip the rows and
columns the walker cannot reach yet, the pure cases before the degree-2
step became one gather table. A change that moves one bit of a
distribution or a sweep summary fails here.

The engines that write these files are sparse density steps, the degree-2
pure step and numpy reductions, none of which calls BLAS or LAPACK. The
one product that may reach BLAS is the 1x1 coin block at the two ends of
the line in the pure line case; its digest reads the same with OpenBLAS
at one thread and at two.
"""

import hashlib
from pathlib import Path

import pytest

from qwalksim import cli

CASES = {
    "line-both": (
        ["walk", "--graph", "line", "--steps", "30", "--p", "0.05",
         "--initial", "symmetric"],
        {"out.csv":
             "56851b0dcbd6a9239db5c2d2f90489a0756534b2ff1f618abbee98d9033b15d7"},
    ),
    "line-position": (
        ["walk", "--graph", "line", "--steps", "25", "--p", "0.1",
         "--target", "position", "--coin", "dft", "--initial", "0.6,0.8j"],
        {"out.csv":
             "ffe7e8ac39f122023ab41610236d5781d91994854e916d030ac5f110433fb089"},
    ),
    "line-coin-near-end": (
        ["walk", "--graph", "line", "--num-positions", "41", "--start", "12",
         "--steps", "12", "--p", "0.3", "--target", "coin", "--initial", "uniform"],
        {"out.csv":
             "3948a3e781dc578c60b76878989c73b4d2049b2035811477371b96574201bad3"},
    ),
    "cycle": (
        ["walk", "--graph", "cycle", "--n", "9", "--steps", "25", "--p", "0.05",
         "--initial", "symmetric"],
        {"out.csv":
             "d97a70f2d5eb1a9f4f624064adf633d5e362aabcac60a07e2085026be1e2c804"},
    ),
    "glued-symmetric": (
        ["walk", "--graph", "glued-trees", "--depth", "3", "--steps", "12",
         "--p", "0.1", "--coin", "dft", "--target", "position"],
        {"out.csv":
             "b2e3123f0432b9d3922e9af340b9d177c0e8a3dedf4e560ef816d293aaca4b2e"},
    ),
    "glued-random-cycle": (
        ["walk", "--graph", "glued-trees", "--depth", "3", "--glue-mode", "random-cycle",
         "--glue-seed", "5", "--steps", "10", "--p", "0.2", "--start", "4"],
        {"out.csv":
             "c290a52de4df46cd9e64e418a0c8a35607db03a80e6ccb4b98bc1c2e0cb68be8"},
    ),
    "line-pure": (
        ["walk", "--graph", "line", "--steps", "100", "--initial", "symmetric"],
        {"out.csv":
             "be886951898edb16f3bda3c12d7599c0655def5c4654d50cf95ea4941f308583"},
    ),
    "cycle-pure": (
        ["walk", "--graph", "cycle", "--n", "15", "--steps", "100", "--coin", "dft",
         "--initial", "0.6,0.8j"],
        {"out.csv":
             "815ce1ed74f916d6059d8a7651f05130350949bd91873488917f8da6b6001b72"},
    ),
    "line-sweep": (
        ["sweep", "--graph", "line", "--steps", "20", "--axis", "p",
         "--values", "0,0.01,0.1,1", "--initial", "symmetric", "--prefix", "s_"],
        {"s_p=0.csv":
             "4ea504a9ffd77a85622ff72d0e081be52ba5982fcf2ef7f7103b721f8b991cf3",
         "s_p=0.01.csv":
             "c3d8148bbefa982be62f6cc97ff83f4e2111edad7f9cca0ed195f5a27b5692a8",
         "s_p=0.1.csv":
             "25e04aef9b71798a235f4299c14c805a9cc9c78e2b0dc54319583eb7acf0770a",
         "s_p=1.csv":
             "ddb3d248d3905114fe7312e5e3c3183775334045fb9a0bb1eee5900cf4319f6e",
         "s_summary.csv":
             "3e2c16ad6aa502ac460837589c448ac9737800994ddafb8e7c76c5582d40e9cc"},
    ),
}


def written_digests(name, workdir):
    argv, _ = CASES[name]
    if argv[0] == "walk":
        argv = argv + ["--output", str(workdir / "out.csv")]
    else:
        argv = argv + ["--output-dir", str(workdir)]
    assert cli.main(argv) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.iterdir()) if not path.name.endswith(".meta.json")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(name, tmp_path, capsys):
    assert written_digests(name, tmp_path) == CASES[name][1]
