"""Pinned output bytes of runs through the command line.

Each case runs ``qwalksim`` and compares the SHA-256 of every file it
writes (the ``.meta.json`` records aside, which hold wall times) with a
digest recorded before the code it runs was last rewritten: the density
cases before the density engine learned to skip the rows and columns the
walker cannot reach yet, the pure cases before the degree-2 step became
one gather table, and the continuous cycle, classical, trajectory and
figures cases before ``--config`` values went through the flags' parser.
The four files of the two continuous glued-trees cases (``exit.csv`` and
``out.csv`` of ``glued-continuous-exit`` and
``glued-continuous-random-adjacency``) were recorded when the column
chain's series and distribution came to be evaluated by one grid kernel
(``continuous._grid_amplitudes``) instead of a matrix product over every
time and column, which moved the exit series by at most 1.1e-15 and the
distributions by at most 1.1e-16; ``tests/test_continuous.py`` holds that
route to a dense product and to the full graph. The two sweep summaries
(``s_summary.csv`` of ``line-sweep`` and ``decoherence_summary.csv`` of
``figures``) were recorded when the max/min ``flatness_ratio`` column was
dropped; each is the earlier file with that column cut. A change that
moves one bit of a distribution, an exit series or a sweep summary fails
here.

The density, pure, classical and trajectory engines run sparse steps,
gather tables, sampling and numpy reductions; the one product among them
that may reach BLAS is the 1x1 coin block at the two ends of the line.
The continuous cases call LAPACK's symmetric eigensolver on at most 12
vertices (the cycle) or 10 columns (the glued-trees chains); the cycle
also takes BLAS products, the chains' grid kernel none. Every digest
reads the same with OpenBLAS at one thread and at two.

The digests hold for the SIMD loops numpy dispatched to where they were
recorded, not only across BLAS threads: numpy 2.4.6 on an x86-64 host with
AVX-512 runs its complex128 ``multiply`` at X86_V3 and ``absolute`` at
X86_V4, which every ``.meta.json`` records under
``environment.numpy_dispatch``. The X86_V3 complex multiply rounds unlike
numpy's baseline loop (scipy's sparse kernels match the baseline), so with
``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"`` five
cases fail: ``cycle-pure``, ``line-pure``, ``figures``,
``glued-continuous-exit`` and ``glued-continuous-random-adjacency``.
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
             "4bae81f35a74e8ec45c64a17e4ec1fcc7686029ad1bbff5e4a65946a028e89b6"},
    ),
    "cycle-continuous": (
        ["walk", "--walk", "continuous", "--graph", "cycle", "--n", "12", "--time", "3.5",
         "--gamma", "0.7"],
        {"out.csv":
             "916e4b3f2a716f150338eafa20ba81896e2fd7f2df9e05bcaaf5e4dc171fbd6b"},
    ),
    "glued-continuous-exit": (
        ["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", "4",
         "--time", "10", "--exit-series", "exit.csv"],
        {"exit.csv":
             "70db787a06c948089a44c839d33bd46cd4477a15f01b100086de6807461e12e0",
         "out.csv":
             "bb30d8a91d2f70e081d6facb8acceb331ebe2a8637b8f6c17246952027661d27"},
    ),
    "glued-continuous-random-adjacency": (
        ["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", "3",
         "--glue-mode", "random-cycle", "--glue-seed", "4", "--time", "6",
         "--convention", "adjacency", "--exit-series", "exit.csv"],
        {"exit.csv":
             "44d9feba8c28bb58140cb67f07fb05628acb8e227a48828069ec9d70a1a5e74d",
         "out.csv":
             "35f86dbb9cdbe38845af892f1b141f13220ede4875cf249483fd3619ca773705"},
    ),
    "line-classical": (
        ["walk", "--walk", "classical", "--graph", "line", "--steps", "40"],
        {"out.csv":
             "3f1aff6c21c4cc2f02dc05904f8479a0881c7d8343c553626e84df25f9dbae9d"},
    ),
    "cycle-trajectories": (
        ["walk", "--graph", "cycle", "--n", "8", "--steps", "15", "--p", "0.2",
         "--trajectories", "50", "--seed", "7"],
        {"out.csv":
             "beebae32f96a5419e0b2eeda1b148d6baddab6c6040fad5a3c9b2164eddafac7"},
    ),
    "figures": (
        ["figures"],
        {"decoherence_p=0.003.csv":
             "07e6a29c1837a2805927ff3c7a4fc14f431a0fe6aa266d722eeaf9029b9aa7a5",
         "decoherence_p=0.01.csv":
             "c00688ef491993b39ec9a53dd8a19d6058b6080dac3f6f261e664a0361a4b0de",
         "decoherence_p=0.03.csv":
             "a9195ae9481a373e2778b746a810fa58ee149d300346284e21a0db598bb1c862",
         "decoherence_p=0.1.csv":
             "e088e1af29894004135f0ed737b0676d57866472514efdcf9b74bdfd5ea029ab",
         "decoherence_p=0.csv":
             "be886951898edb16f3bda3c12d7599c0655def5c4654d50cf95ea4941f308583",
         "decoherence_summary.csv":
             "0f9ec4581de81c77956a7cbcda64564b2a8ae4d28e9e9c02c7cc8a2530eab3a3",
         "line_t100_basis0.csv":
             "d2b287bba7b36f888f2aaa40ef7ebfab77052983b233ede5e3ba090a64991902",
         "line_t100_classical.csv":
             "800c73507dca4ec5316cc0b0bb5d606caab66fa7c256caa160651842d605e07e",
         "line_t100_symmetric.csv":
             "be886951898edb16f3bda3c12d7599c0655def5c4654d50cf95ea4941f308583"},
    ),
}


# every output path is relative, so each case writes into its own directory
OUTPUT_FLAGS = {"walk": ["--output", "out.csv"], "sweep": ["--output-dir", "."],
                "figures": ["--outdir", "."]}


def written_digests(name, workdir, monkeypatch):
    argv, _ = CASES[name]
    monkeypatch.chdir(workdir)
    assert cli.main(argv + OUTPUT_FLAGS[argv[0]]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.iterdir()) if not path.name.endswith(".meta.json")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    assert written_digests(name, tmp_path, monkeypatch) == CASES[name][1]
