import json

import numpy as np
import pytest

from gridrates import cli, vulnerability
from gridrates.config import RunConfig
from gridrates.errors import ConfigError


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "n_users": 300,
        "seed": 17,
        "k": 8,
        "corpus_overrides": {"total_range": [26000.0, 60000.0]},
    }))
    return path


def _run(*argv):
    return cli.main([str(a) for a in argv])


def test_datagen_writes_expected_rows(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    lines = (tmp_path / "corpus.csv").read_text().strip().splitlines()
    assert len(lines) == 301
    assert lines[0].startswith("user_id,t0,")
    meta = json.loads((tmp_path / "meta_datagen.json").read_text())
    assert meta["n_users"] == 300 and len(meta["config_hash"]) == 16


def test_datagen_deterministic(tmp_path, small_config):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert _run("datagen", "--config", small_config, "--out", tmp_path / sub) == 0
    assert (tmp_path / "a" / "corpus.csv").read_bytes() == \
        (tmp_path / "b" / "corpus.csv").read_bytes()


def test_datagen_rejects_zero_users(tmp_path):
    assert _run("datagen", "--n", 0, "--out", tmp_path) == 1


def test_datagen_full_scale_row_count(tmp_path):
    assert _run("datagen", "--n", 7699, "--seed", 1, "--out", tmp_path) == 0
    with open(tmp_path / "corpus.csv") as fh:
        assert sum(1 for _ in fh) == 7700  # header + one row per user


def test_price_constant_corpus_gives_constant_price(tmp_path):
    corpus = tmp_path / "flat.csv"
    rows = "\n".join(f"u{i}," + ",".join(["1000"] * 24) for i in range(40))
    corpus.write_text("user_id," + ",".join(f"t{t}" for t in range(24)) + "\n" + rows + "\n")
    assert _run("price", "--corpus", corpus, "--out", tmp_path) == 0
    lines = (tmp_path / "price.csv").read_text().strip().splitlines()
    prices = {line.split(",")[2] for line in lines[2:]}
    assert len(prices) == 1


def test_price_excludes_rows_with_infinite_cells(tmp_path):
    corpus = tmp_path / "inf.csv"
    rows = [f"u{i}," + ",".join(["1000"] * 24) for i in range(40)]
    rows[3] = "u3," + ",".join(["1000"] * 23 + ["inf"])
    corpus.write_text("user_id," + ",".join(f"t{t}" for t in range(24)) + "\n"
                      + "\n".join(rows) + "\n")
    assert _run("price", "--corpus", corpus, "--out", tmp_path) == 0
    lines = (tmp_path / "price.csv").read_text().strip().splitlines()
    assert all(np.isfinite(float(v)) for line in lines[2:] for v in line.split(","))
    meta = json.loads((tmp_path / "meta_price.json").read_text())
    assert meta["n_users"] == 39 and meta["n_excluded"] == 1
    assert meta["excluded_by_reason"] == {"infinite value": 1}


def test_meta_breaks_exclusions_down_by_reason(tmp_path):
    corpus = tmp_path / "mixed.csv"
    rows = [f"u{i}," + ",".join([str(20000 + i)] * 24) for i in range(40)]
    for i, cell in ((1, "abc"), (2, ""), (5, "nan"), (7, "-inf"), (8, "-3")):
        rows[i] = f"u{i}," + ",".join(["1000"] * 23 + [cell])
    rows[9] = "u9," + ",".join(["0"] * 24)
    corpus.write_text("user_id," + ",".join(f"t{t}" for t in range(24)) + "\n"
                      + "\n".join(rows) + "\n")
    for argv in (["price"], ["cluster", "--method", "gkc"], ["sensitivity"]):
        assert _run(*argv, "--corpus", corpus, "--out", tmp_path) == 0
    for name in ("price", "cluster_gkc", "sensitivity"):
        meta = json.loads((tmp_path / f"meta_{name}.json").read_text())
        assert meta["n_users"] == 34 and meta["n_excluded"] == 6
        assert meta["excluded_by_reason"] == {
            "non-numeric or empty cell": 2, "missing value": 1,
            "infinite value": 1, "negative consumption": 1,
            "zero total consumption": 1,
        }


def test_unknown_flag_is_validation_error(tmp_path):
    assert _run("datagen", "--bogus", 3, "--out", tmp_path) == 1


def test_price_table_shape_and_peak_alignment(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    assert _run("price", "--config", small_config, "--out", tmp_path,
                "--corpus", tmp_path / "corpus.csv") == 0
    lines = (tmp_path / "price.csv").read_text().strip().splitlines()
    assert lines[0] == "# config_hash=" + json.loads(
        (tmp_path / "meta_price.json").read_text())["config_hash"]
    assert lines[1] == "t,load,price"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 24
    loads = np.array([float(r[1]) for r in rows])
    prices = np.array([float(r[2]) for r in rows])
    assert loads.argmax() == prices.argmax()  # affine map preserves the peak


def test_cluster_methods_and_artifacts(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    for method in ("profile", "gkc", "skc"):
        assert _run("cluster", "--config", small_config, "--out", tmp_path,
                    "--corpus", corpus, "--method", method) == 0
        doc = json.loads((tmp_path / f"clustering_{method}.json").read_text())
        assert doc["k"] == len(doc["clusters"])
        rates = (tmp_path / f"rates_{method}.csv").read_text().strip().splitlines()
        assert len(rates) == 302  # hash line + header + one row per user
    gkc_meta = json.loads((tmp_path / "meta_cluster_gkc.json").read_text())
    assert gkc_meta["criterion_ok"] is True
    skc_meta = json.loads((tmp_path / "meta_cluster_skc.json").read_text())
    assert skc_meta["criterion_ok"] is True
    assert skc_meta["n_clusters"] >= gkc_meta["n_clusters"]
    assert skc_meta["base_wall_time_s"] > 0  # the base clustering, timed apart
    for method in ("profile", "skc"):  # the tariff k-means run's convergence
        meta = json.loads((tmp_path / f"meta_cluster_{method}.json").read_text())
        assert 1 <= meta["n_iter"] <= 100
        assert isinstance(meta["label_fixpoint"], bool)
        assert meta["inertia"] > 0


def test_vulnerability_sweep_monotone_columns(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", "profile") == 0
    assert _run("vulnerability", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus,
                "--clustering", tmp_path / "clustering_profile.json") == 0
    lines = (tmp_path / "vulnerability_sweep.csv").read_text().strip().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert rows.shape[0] == 41  # theta 0..0.2 step 0.005
    assert rows[0, 0] == 0.0
    assert np.all(np.diff(rows[:, 1]) >= 0)        # percentage monotone
    assert np.all(np.diff(rows[:, 2:], axis=0) >= 0)  # per-cluster counts monotone
    smooth = json.loads((tmp_path / "smoothness.json").read_text())
    assert smooth["delta_observed"] >= 0
    reports = (tmp_path / "disguise_reports.csv").read_text().strip().splitlines()
    assert reports[0] == "user_id,cr,best_target,benefit"


def test_vulnerability_on_rate_clustering(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", "gkc") == 0
    assert _run("vulnerability", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus,
                "--clustering", tmp_path / "clustering_gkc.json") == 0
    smooth = json.loads((tmp_path / "smoothness.json").read_text())
    assert smooth["delta_observed"] <= smooth["band_bound"] + 1e-12
    assert smooth["n_violations"] == 0


@pytest.mark.parametrize("method, flags", [
    ("profile", ()), ("profile", ("--strict",)), ("gkc", ()),
])
def test_vulnerability_builds_efforts_once(tmp_path, small_config, monkeypatch,
                                           method, flags):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", method) == 0
    builds = []
    build = vulnerability.effort_matrix

    def counted(*args, **kwargs):
        builds.append(kwargs.get("strict"))
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "effort_matrix", counted)
    monkeypatch.setattr(vulnerability, "effort_matrix", counted)
    assert _run("vulnerability", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--clustering", tmp_path / f"clustering_{method}.json",
                *flags) == 0
    assert builds == [bool(flags)]

    meta = json.loads((tmp_path / "meta_vulnerability.json").read_text())
    smooth = json.loads((tmp_path / "smoothness.json").read_text())
    k = json.loads((tmp_path / f"clustering_{method}.json").read_text())["k"]
    assert meta["strict"] is bool(flags)
    assert meta["effort_s"] > 0
    assert meta["n_effort_pairs"] == 300 * (k - 1)
    assert 0 <= meta["n_degenerate_targets"] <= meta["n_unreachable_pairs"]
    assert meta["n_unreachable_pairs"] < meta["n_effort_pairs"]
    assert meta["n_reachable_pairs"] == smooth["n_reachable_pairs"]


@pytest.mark.parametrize("command", ["vulnerability", "diversity"])
@pytest.mark.parametrize("method", ["profile", "gkc"])
def test_clustering_from_another_corpus_is_validation_error(
        tmp_path, small_config, capsys, command, method):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", tmp_path / "corpus.csv", "--method", method) == 0
    other = tmp_path / "other"
    assert _run("datagen", "--config", small_config, "--n", 10, "--out", other) == 0
    capsys.readouterr()
    code = _run(command, "--config", small_config, "--out", other,
                "--corpus", other / "corpus.csv",
                "--clustering", tmp_path / f"clustering_{method}.json")
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "290 clustering user ids are not in the corpus" in err
    assert "(first: 'u" in err


@pytest.mark.parametrize("command", ["vulnerability", "diversity"])
@pytest.mark.parametrize("method, override, message", [
    pytest.param("profile", {"a": 0.00024},
                 "cluster prices are not the MCI of their centers", id="profile-a"),
    pytest.param("gkc", {"a": 0.00024},
                 "bands have a rate_range other than their members' rates", id="gkc-a"),
    pytest.param("skc", {"a": 0.00024},
                 "bands have a rate_range other than their members' rates", id="skc-a"),
    pytest.param("gkc", {"rho": 0.1}, "tariff has rho=0.5, the config rho=0.1", id="gkc-rho"),
])
def test_tariff_from_another_config_is_validation_error(
        tmp_path, small_config, capsys, command, method, override, message):
    corpus = tmp_path / "corpus.csv"
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", method) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(small_config.read_text()), **override}))
    capsys.readouterr()
    code = _run(command, "--config", other, "--out", tmp_path / "audit",
                "--corpus", corpus, "--clustering", tmp_path / f"clustering_{method}.json")
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert message in err


def test_theta_grid_never_passes_theta_max(tmp_path, small_config):
    np.testing.assert_array_equal(RunConfig().theta_grid(),
                                  np.round(np.arange(41) * 0.005, 12))
    cfg = RunConfig(theta_max=0.99, theta_step=0.2)
    np.testing.assert_array_equal(cfg.theta_grid(), [0.0, 0.2, 0.4, 0.6, 0.8])
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", "gkc") == 0
    assert _run("vulnerability", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--clustering", tmp_path / "clustering_gkc.json",
                "--theta-max", 0.99, "--theta-step", 0.2) == 0
    lines = (tmp_path / "vulnerability_sweep.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["0", "0.2", "0.4", "0.6", "0.8"]


def test_sensitivity_monotone_in_rho(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    assert _run("sensitivity", "--config", small_config, "--out", tmp_path,
                "--corpus", tmp_path / "corpus.csv",
                "--rho-grid", "0.2,0.5,1.0,2.0,100.0") == 0
    lines = (tmp_path / "sensitivity.csv").read_text().strip().splitlines()
    assert lines[1] == "rho,a,kappa"
    rows = [line.split(",") for line in lines[2:]]
    by_a = {}
    for rho, a, kappa in rows:
        by_a.setdefault(a, []).append(int(kappa))
    for seq in by_a.values():
        assert seq == sorted(seq, reverse=True)
        assert seq[-1] == 1  # huge rho covers everything


def test_diversity_sigma_and_drill(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", "gkc") == 0
    assert _run("diversity", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus,
                "--clustering", tmp_path / "clustering_gkc.json",
                "--drill", "0", "--drill-k", "3") == 0
    lines = (tmp_path / "sigma.csv").read_text().strip().splitlines()
    assert lines[1] == "cluster,size,price,sigma"
    sigmas = [float(line.split(",")[3]) for line in lines[2:]]
    assert all(0.0 <= s <= 2.0 for s in sigmas)
    sub = json.loads((tmp_path / "subclusters_0.json").read_text())
    assert sub["kind"] == "profile"


def test_missing_corpus_is_runtime_error(tmp_path, small_config):
    code = _run("price", "--config", small_config, "--out", tmp_path,
                "--corpus", tmp_path / "missing.csv")
    assert code == 2  # OS-level read failure is a runtime error


def test_bad_config_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run("datagen", "--config", bad, "--out", tmp_path) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"no_such_key": 1}')
    assert _run("datagen", "--config", unknown, "--out", tmp_path) == 1


def test_config_defaults_and_hash_stability():
    cfg = RunConfig()
    assert cfg.baseline_k() == 30
    assert RunConfig(corpus_kind="commercial").baseline_k() == 24
    assert cfg.hash() == RunConfig().hash()
    assert cfg.with_overrides(seed=1).hash() != cfg.hash()
    grid = cfg.theta_grid()
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.2) and len(grid) == 41
    with pytest.raises(ConfigError):
        RunConfig(rho=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(theta_max=1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"a": 0.0})  # cost curvature must be positive
