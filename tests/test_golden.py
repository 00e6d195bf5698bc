"""Golden artifacts: the pipeline's result files, pinned by sha256 across changes.

Acceptance criterion 10 compares two runs inside one process, so it cannot
see a change that moves every run alike. This test runs criterion 10's
pinned 500-user config through every command, plus `vulnerability --strict`
on its profile tariff, `vulnerability` on its gkc and skc tariffs (the
skc one has 80 bands), and an `--metric l1` profile tariff with its
pairwise and strict audits (the l1 effort kernel, its floors and pruning),
and compares each result file (not the `meta_*` sidecars, which hold timings) with the
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
        "34160358c8ccb3db1e0e9731cc90c549acdc74875c03d0d751a8ee2aad8cfa83",
    "base/disguise_reports.json":
        "fe0b03b6f2d879c3fc9f09b89641d6b849ec56e69a5d56b3d23ad098013d1d90",
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
        "04e9f95fb8382be0449c8502e78e3a589ea5f8c34c00dbd9ad65f6267d72aeaf",
    "base/subclusters_0.json":
        "ff409c538ebd49b7bc031dc55e0354b08964472adf516a07f8009b872d6e1ba6",
    "base/vulnerability_sweep.csv":
        "4ab563dda6884aa356b887ea165e2d685c338d67e31c1653770118738490dc4a",
    "gkc/disguise_reports.csv":
        "cf5a1453ba4b64cad90a43b4e9fd48919754ad89ab81ef515e904e73ad24cabd",
    "gkc/disguise_reports.json":
        "e8218b7e153ee577c67047f76972001062cfe0f260f91670c741ae54617b61a5",
    "gkc/smoothness.json":
        "5268d0eb796ee8370770a579ba2850a0f3206d8348f391dfb4dc154e29b10f77",
    "gkc/vulnerability_sweep.csv":
        "4f78f8423668fc4151bbf67eeef599a9350c901bffec2217e995f81060fa866d",
    "strict/disguise_reports.csv":
        "412175e88c1c66539af3023c1443d16176b46051ab8c204f676b4d55412bdb00",
    "strict/disguise_reports.json":
        "c3171df9990d5a64fc95f3084272af9bcb9a6b0e7b0d1c299de72dc70e7b8f4f",
    "strict/smoothness.json":
        "62925d28c713c909e80074800172c0dfaa90607a779d5778788bb0466ff685be",
    "strict/vulnerability_sweep.csv":
        "112d1b1a18eb3dd47d0731b41939cf435cbfa2d8e87f6c5fe4e5b934ebd5afc8",
    "skc/disguise_reports.csv":
        "81718a39407abbde915a54f3d7aa7edd75e28ac00c2c0a6e2dff4803215efe44",
    "skc/disguise_reports.json":
        "6804cbb3800c9524f8e8f9c254f9e34c886b105cd2f9b00bb5af98acce82ba2a",
    "skc/smoothness.json":
        "a291b015981681913b99050da722e3fdcad634f3d432d75c2fcc8cf91135b2ee",
    "skc/vulnerability_sweep.csv":
        "fb89716356cecb5b59174539d4fa7f0f159e7fd74ae7aabf3cb2b4edaff635ac",
    "l1/clustering_profile.json":
        "8921b796e9ecea8daa987bc1ab2a9bf61801081ffd5376f23c0477f6b5a2698a",
    "l1/disguise_reports.csv":
        "dda7e42157bad7d4e8c7d7a0a70ea3dad6c40328d1c76d9c2e910f8d302905ca",
    "l1/disguise_reports.json":
        "9eae0d9b9ec39ddb058dd9b243a852efbaea70de304fb903b914e37d58960217",
    "l1/rates_profile.csv":
        "610379de88b1a0f77e1f4a4a73d12e7ea6362a77230281c6f2010c3321c6da22",
    "l1/smoothness.json":
        "e805d2398871aebd1fd18c38662bf9dd5e428fe89e20d3ac7b83e6dbd4eeabf8",
    "l1/vulnerability_sweep.csv":
        "f6a52aac7e380479c79b076cbf8381c884c999baee7ee3bb56bd2ad43de54138",
    "l1-strict/disguise_reports.csv":
        "a8f80287b6abfdb06aa8d7d7ce0b37589add8d79856dfa971b49d4ba291571f3",
    "l1-strict/disguise_reports.json":
        "07d1dc3b1996073cf91010f5176b2a8d40a7405a90d1bffb3588d9743a8eaa5d",
    "l1-strict/smoothness.json":
        "66588e095860bca8c16ac59fbfd2066958c025a7f5334dd91aff015d1a2d79f0",
    "l1-strict/vulnerability_sweep.csv":
        "f6a52aac7e380479c79b076cbf8381c884c999baee7ee3bb56bd2ad43de54138",
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
        ("l1", ["cluster", "--corpus", corpus, "--method", "profile", "--metric", "l1"]),
        ("l1", ["vulnerability", "--corpus", corpus,
                "--clustering", root / "l1" / "clustering_profile.json"]),
        ("l1-strict", ["vulnerability", "--strict", "--corpus", corpus,
                       "--clustering", root / "l1" / "clustering_profile.json"]),
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
        for sub in ("base", "strict", "gkc", "skc", "l1", "l1-strict")
        for path in sorted((tmp_path / sub).iterdir())
        if not path.name.startswith("meta_")
    }
    assert sorted(digests) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert changed == []
