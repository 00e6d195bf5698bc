"""Golden artifacts: the pipeline's result files, pinned by sha256 across changes.

Acceptance criterion 10 compares two runs inside one process, so it cannot
see a change that moves every run alike. This test runs criterion 10's
pinned 500-user config through every command, plus `vulnerability --strict`
on its profile tariff and `vulnerability` on its gkc and skc tariffs (the
skc one has 80 bands), and compares
each result file (not the `meta_*` sidecars, which hold timings) with the
digest recorded here. An intended change to a golden file must update its
digest and say why in CHANGES.md.

Digests taken with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux; another
numpy's floating-point kernels may change the last bits of some results.
"""

import hashlib

from gridrates import cli

CONFIG = (
    '{"n_users": 500, "seed": 11, "k": 10,\n'
    ' "corpus_overrides": {"total_range": [16000.0, 36000.0]}}\n'
)

GOLDEN = {
    "base/clustering_gkc.json":
        "3a84590274c07ccef78715c6830ba498539c8659bd4fc711abd8ad9c64822c56",
    "base/clustering_profile.json":
        "b343ac9071e44f8ee0ed8f597ad0e8c2aff820c08d4d98a76845b27f487b6a0e",
    "base/clustering_skc.json":
        "4b9b008c34b1ea075f280337e7ee005cb8c11ef132b5f47cb1e97498bbda1cc7",
    "base/corpus.csv":
        "c81edd363fda769953bb91c56578702dfe5d8c116b88d48b0f32c2c75fc70f44",
    "base/disguise_reports.csv":
        "bcee36385fef6f56cc318c47256383ae02357815ed4809df82503a756db49065",
    "base/disguise_reports.json":
        "63d703ebd90411ecb219828fdc58ab2a1ae16a10c57cdcd7f842278a2d112bdf",
    "base/price.csv":
        "dc454982b79fa5b7153bf4689dd42cc4aa8a43c9719bf191d031b32ee031caae",
    "base/rates_gkc.csv":
        "610d8f09aaa164db27fc3f4c97e6ca44b9641e6d9e15887374ed110344ec84d2",
    "base/rates_profile.csv":
        "ed082e2116944ac22c6285f6880658540b7dfc7ad078f49433c16f4895fdb713",
    "base/rates_skc.csv":
        "f215fa58eb7bba67e71fb76887bf7198645116ba2ea9572957ea85364b4df515",
    "base/sensitivity.csv":
        "8b2782cff8435da0ba4d8baa48d527699d9ee1d74f0bbf609b05d0ceb79dc9c5",
    "base/sigma.csv":
        "718d13cf88dd2f75fffb16b80838319671fcca1abdfedaa1c4f1f6357251024d",
    "base/smoothness.json":
        "0f6c1efca81116082b7ea39b05c8e971d75941e52b00327494a1068a94d06359",
    "base/subclusters_0.json":
        "ff409c538ebd49b7bc031dc55e0354b08964472adf516a07f8009b872d6e1ba6",
    "base/vulnerability_sweep.csv":
        "63da3a2c656f8f3792d690d86790737339d2df41b98d722d4ee28d1051809570",
    "gkc/disguise_reports.csv":
        "cf5a1453ba4b64cad90a43b4e9fd48919754ad89ab81ef515e904e73ad24cabd",
    "gkc/disguise_reports.json":
        "e8218b7e153ee577c67047f76972001062cfe0f260f91670c741ae54617b61a5",
    "gkc/smoothness.json":
        "5268d0eb796ee8370770a579ba2850a0f3206d8348f391dfb4dc154e29b10f77",
    "gkc/vulnerability_sweep.csv":
        "4f78f8423668fc4151bbf67eeef599a9350c901bffec2217e995f81060fa866d",
    "strict/disguise_reports.csv":
        "cd74f0957edf707f788f15d80b3ad0dc4c617e0ee2ef65fe5c9e9c290edab094",
    "strict/disguise_reports.json":
        "d2640cd142f311fd793f47d6f340149bde083e5d6e4b4d9d3fcec65871211813",
    "strict/smoothness.json":
        "ff3655fea7674eadbcbaac0bb93a2a961d3f08120d5f48c0deb984e2e5d6efe0",
    "strict/vulnerability_sweep.csv":
        "76f7a020a94fc61264f92c9634b4fa688322845b7041a6c3968b7d45b2814131",
    "skc/disguise_reports.csv":
        "81718a39407abbde915a54f3d7aa7edd75e28ac00c2c0a6e2dff4803215efe44",
    "skc/disguise_reports.json":
        "6804cbb3800c9524f8e8f9c254f9e34c886b105cd2f9b00bb5af98acce82ba2a",
    "skc/smoothness.json":
        "a291b015981681913b99050da722e3fdcad634f3d432d75c2fcc8cf91135b2ee",
    "skc/vulnerability_sweep.csv":
        "fb89716356cecb5b59174539d4fa7f0f159e7fd74ae7aabf3cb2b4edaff635ac",
}


def _pipeline(root):
    config = root / "config.json"
    config.write_text(CONFIG)
    base = root / "base"
    corpus = base / "corpus.csv"
    steps = (
        ("base", ["datagen"]),
        ("base", ["price", "--corpus", corpus]),
        ("base", ["cluster", "--corpus", corpus, "--method", "profile"]),
        ("base", ["cluster", "--corpus", corpus, "--method", "gkc"]),
        ("base", ["cluster", "--corpus", corpus, "--method", "skc"]),
        ("base", ["vulnerability", "--corpus", corpus,
                  "--clustering", base / "clustering_profile.json"]),
        ("base", ["sensitivity", "--corpus", corpus]),
        ("base", ["diversity", "--corpus", corpus,
                  "--clustering", base / "clustering_gkc.json", "--drill", "0"]),
        ("strict", ["vulnerability", "--strict", "--corpus", corpus,
                    "--clustering", base / "clustering_profile.json"]),
        ("gkc", ["vulnerability", "--corpus", corpus,
                 "--clustering", base / "clustering_gkc.json"]),
        ("skc", ["vulnerability", "--corpus", corpus,
                 "--clustering", base / "clustering_skc.json"]),
    )
    for sub, argv in steps:
        out = root / sub
        out.mkdir(exist_ok=True)
        argv = [str(a) for a in argv] + ["--out", str(out), "--config", str(config)]
        assert cli.main(argv) == 0, argv


def test_result_files_match_golden_digests(tmp_path):
    _pipeline(tmp_path)
    digests = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for sub in ("base", "strict", "gkc", "skc")
        for path in sorted((tmp_path / sub).iterdir())
        if not path.name.startswith("meta_")
    }
    assert sorted(digests) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert changed == []
