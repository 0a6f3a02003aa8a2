"""Golden outputs: the sha256 of every file a few small configurations
write, and their exit codes.

A change that alters any output byte fails here.  The certify suites whose
reports carry sums of floating-point products (gofA-oracle's
max_deviation) are left out, since those depend on the BLAS build.
"""

import hashlib

import pytest

from rtlab.cli import main

# case -> (command lines run in order in one directory, their exit codes,
#          file name -> sha256 of every file the commands leave there)
GOLDEN = {
    "gen-cbe": (
        ["gen-cbe --p 3 --ell 1 --k 8 --n 40 --seed 4 --out cbe"],
        [0],
        {
            "cbe.csv":
                "9d96ba00a977f1ad4cae16267ad9cf2d77962a69ebc7cb7449bd01390186188c",
            "cbe.edges":
                "69f0795313cb8774cc092edc163ffe68852325fb612343064a1a001326946047",
            "cbe.json":
                "870236727925a8cef264d636317a77c7c159c51060d20798eb7980885d5ab376",
        },
    ),
    "gen-mbe": (
        ["gen-mbe --ell 2 --p 1 --q 2 --k 6 --m 4 --seed 3 --out mbe"],
        [0],
        {
            "mbe.csv":
                "fff9c5a1810f200f6cc8cc4e1ff064c17861b6b3a712f00fff5b3cc6e4d1e5a6",
            "mbe.edges":
                "368395d658b6e0deb950f812485cf04799744cd5614e256e117299d60b4b62dc",
            "mbe.hyper":
                "47753068601e2179847e82d0781f79a4a09a3c03c3ebbc2343b7348394524dba",
            "mbe.json":
                "767e5161edc2338f04ae7122da20e6862c5a485796b7e960fdda5703365d95c0",
        },
    ),
    "gen-mbe-blowup": (
        ["gen-mbe --ell 2 --p 1 --q 2 --k 10 --m 2 --t 4 --retention 0.25 "
         "--seed 1 --out blowup"],
        [0],
        {
            "blowup.csv":
                "a8750ec07283d592b1e9600a3837ecaf4068ebbe634bcccab2407551d0daa965",
            "blowup.edges":
                "623862da0bb39a6f6d76b04d1e8205844a11e09a4cdc3141aa0d8e70c52dec36",
            "blowup.hyper":
                "fa8c58a08d2f3747feb3bc3c6382cb573092805e357a13b75f3098514da57861",
            "blowup.json":
                "59219e897b2bb61702dbb5b16ac5d7f08a6dfcbed61d59bc11958af14a6b1128",
        },
    ),
    "analyze-mbe": (
        ["gen-mbe --ell 2 --p 2 --q 2 --k 10 --m 8 --seed 1 --out dense",
         "analyze dense.edges --header dense.json --p 2 --cutoff 8 --out a.csv"],
        [0, 0],
        {
            "a.csv":
                "2167bea053a998eddcd6071351c6102db761cec924a6f583e5e350945f7f3bbe",
            "dense.csv":
                "6cfbdb20c8d9ec75e9207efa26ff11f25356f353ba8bef22e84676d2d432d0fd",
            "dense.edges":
                "390a0a6dfbb1a1f9ec677ad7223bb9a26652e27eae3f4175a54166fdb7f94267",
            "dense.hyper":
                "f48193b22891f29a3062681f1f36dd7964aeed05830ee8429b067af54ed1f42a",
            "dense.json":
                "2d20b7c56f6572589dfaee725abc9c413363d6c526c36b09142756a6e1884fac",
        },
    ),
    # strict mode: two points per cell of an equal-measure partition; no
    # advisory, and inner edges exist (max inner degree 42, omega 3)
    "gen-cbe-strict": (
        ["gen-cbe --p 3 --ell 1 --k 1 --n 140 --epsilon 0.27 --seed 2 "
         "--mode strict --out strict"],
        [0],
        {
            "strict.csv":
                "190398a253867377e5698b3c962f64bd0719c61a82944b5ab6f420e0d441f49c",
            "strict.edges":
                "811ab29cabb2dd908b00706670bcd26c13cceb27076e537b94c91fa3df89d85e",
            "strict.json":
                "377fbfae7e424bf6eeb178074d44012f85d4dcaf5d780c82622beac6074e5654",
        },
    ),
    "gen-mbe-partition": (
        ["gen-mbe --ell 1 --p 1 --q 2 --k 1 --m 128 --epsilon 0.2 --seed 1 "
         "--point-mode partition --out part"],
        [0],
        {
            "part.csv":
                "55a3b3a29982704cdc12295904aeabf50708178395990f1c6c5c8b8fc5616d9e",
            "part.edges":
                "d001e6bda144cf6721b961135ea53ece736de7379e12f7a94b7d7c64a4e7495c",
            "part.hyper":
                "bfb7895a302858ee7b5c27f624f8044ef5253ac1994fceb14d5b45af7480325d",
            "part.json":
                "85c0a615cc400a92e986220b2f8800853b9c69a68e608a2d8de56bf1a56081f3",
        },
    ),
    "sweep-cbe": (
        ["sweep gen-cbe --p 3 --ell 1 --k 8,16 --n 20,30 --seed 1 --out s.csv"],
        [0],
        {
            "s.csv":
                "3613aabefad4ad4a835cfce682c0e94a905aa1d0e441b48fded884f5278edee5",
        },
    ),
    "sweep-mbe": (
        ["sweep gen-mbe --ell 1,2 --p 1 --q 2 --k 6 --m 4 --seed 3 --out s.csv"],
        [0],
        {
            "s.csv":
                "5f7b6bfbc9999bb7a8497a6ba80a1866f33eacf7786de00aa2b4143cab2da65f",
        },
    ),
    "analyze": (
        ["gen-cbe --p 3 --ell 1 --k 8 --n 40 --seed 4 --out cbe",
         "analyze cbe.edges --header cbe.json --out a.csv",
         "analyze cbe.edges --p 2 --cutoff 4 --exact-limit 10 --out b.csv"],
        [0, 0, 0],
        {
            "a.csv":
                "3422089148c954a5fe325632fc7653ae86e99331f2ccb4349a0fd01353d5b88c",
            "b.csv":
                "db2dfcbbafef5df1b21527f10da7090be4f027dcc12fe4c74b32763f5f11c1d3",
            "cbe.csv":
                "9d96ba00a977f1ad4cae16267ad9cf2d77962a69ebc7cb7449bd01390186188c",
            "cbe.edges":
                "69f0795313cb8774cc092edc163ffe68852325fb612343064a1a001326946047",
            "cbe.json":
                "870236727925a8cef264d636317a77c7c159c51060d20798eb7980885d5ab376",
        },
    ),
    "certify-window": (
        ["certify theorem15-window --out window.json"],
        [0],
        {
            "window.json":
                "bbb45b1a992eb05c6ea00d4b7d7eaa6920cd6efebc6dee98ec8c7f75b0d62fcb",
        },
    ),
}


def run_case(directory, commands):
    """Exit codes of the commands, run in order, and the digests of the
    files they leave in directory."""
    codes = [main(cmd.split()) for cmd in commands]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(directory.iterdir())}
    return codes, digests


@pytest.mark.parametrize("case", GOLDEN)
def test_golden_outputs(tmp_path, monkeypatch, capsys, case):
    commands, codes, digests = GOLDEN[case]
    monkeypatch.chdir(tmp_path)
    assert run_case(tmp_path, commands) == (codes, digests)
