import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gridrates import (Population, __version__, acceptance, aggregate, cli, errors,
                       kmeans_profiles, price_curve, vulnerability)
from gridrates.config import MAX_THETA_POINTS, RunConfig
from gridrates.errors import ConfigError, PriceWarning
from gridrates.kmeans import MAX_ITERS
from gridrates.profiles import ingest_csv
from gridrates.tariff import Tariff


_SMALL_CONFIG = {
    "n_users": 300,
    "seed": 17,
    "k": 8,
    "corpus_overrides": {"total_range": [26000.0, 60000.0]},
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_SMALL_CONFIG))
    return path


@pytest.fixture(scope="module")
def tariff_files(tmp_path_factory):
    """A small config, its corpus, and the corpus's profile and gkc tariffs."""
    root = tmp_path_factory.mktemp("tariffs")
    (root / "config.json").write_text(json.dumps(_SMALL_CONFIG))
    assert _run("datagen", "--config", root / "config.json", "--out", root) == 0
    for method in ("profile", "gkc"):
        assert _run("cluster", "--config", root / "config.json", "--out", root,
                    "--corpus", root / "corpus.csv", "--method", method) == 0
    return root


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
    assert meta["csv_rows"] == 0    # np.loadtxt reads inf


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
        # np.loadtxt rejects "abc" and "", so csv.reader read the one chunk
        assert meta["csv_rows"] == 40


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
    assert gkc_meta["criterion_ok"] is True and gkc_meta["minimal_certified"] is True
    skc_meta = json.loads((tmp_path / "meta_cluster_skc.json").read_text())
    assert skc_meta["criterion_ok"] is True
    assert skc_meta["n_clusters"] >= gkc_meta["n_clusters"]
    assert skc_meta["base_wall_time_s"] > 0  # the base clustering, timed apart
    for method in ("profile", "skc"):  # the tariff k-means run's convergence
        meta = json.loads((tmp_path / f"meta_cluster_{method}.json").read_text())
        assert 1 <= meta["n_iter"] <= MAX_ITERS
        assert isinstance(meta["label_fixpoint"], bool)
        assert meta["inertia"] > 0


def test_user_rates_in_code_point_order_of_ids(tmp_path):
    ids = ["b", "B", "caf\u00e9", "a10", "a9", "Z", "a", "\u65e5"]
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    tariff = cli.Tariff(ids, labels, np.array([1.5, 0.1 + 0.2]), "gkc")
    cli._write_user_rates(tmp_path / "rates.csv", tariff, "h")
    expected = [f"{uid},{label},{tariff.prices[label]:.9g}"
                for uid, label in sorted(tariff.assignments.items())]
    assert (tmp_path / "rates.csv").read_text(encoding="utf-8").splitlines() == [
        "# config_hash=h", "user_id,cluster,rate", *expected]


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
    builds, pairs = [], []
    build, kernel = vulnerability.effort_rows, vulnerability.switch_efforts

    def counted_build(tariff, pop=None, strict=False, theta=None):
        builds.append(strict)
        return build(tariff, pop, strict, theta)

    def counted_kernel(d, rivals, targets, pairs_of=None):
        user, target = (np.divmod(np.arange(len(d) * len(targets)), len(targets))
                        if pairs_of is None else pairs_of)
        pairs.extend(zip(map(bytes, d[user]), target.tolist()))
        return kernel(d, rivals, targets, pairs_of)

    monkeypatch.setattr(vulnerability, "effort_rows", counted_build)
    monkeypatch.setattr(vulnerability, "switch_efforts", counted_kernel)
    assert _run("vulnerability", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--clustering", tmp_path / f"clustering_{method}.json",
                *flags) == 0
    # a rate tariff's reports come from its price windows, with no effort rows
    assert builds == ([bool(flags)] if method == "profile" else [])
    k = json.loads((tmp_path / f"clustering_{method}.json").read_text())["k"]
    # the kernel sees each (profile, cluster) pair at most once, and only the
    # pairs a report reads; rate tariffs never call it
    assert len(set(pairs)) == len(pairs)
    if method == "profile":
        assert 0 < len(pairs) < 300 * k
    else:
        assert pairs == []

    meta = json.loads((tmp_path / "meta_vulnerability.json").read_text())
    smooth = json.loads((tmp_path / "smoothness.json").read_text())
    assert meta["strict"] is bool(flags)
    assert meta["effort_s"] > 0
    assert meta["n_effort_pairs"] == 300 * (k - 1)
    assert meta["n_exact_pairs"] == len(pairs)
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


def _list_twice(doc, by):   # cluster `by` also lists cluster 0's first member
    doc["clusters"][by]["members"].append(doc["clusters"][0]["members"][0])


@pytest.mark.parametrize("command", ["vulnerability", "diversity"])
@pytest.mark.parametrize("method, edit, message", [
    pytest.param("profile", lambda doc: _list_twice(doc, 1),
                 "user id {first!r} is listed 2 times, by clusters [0, 1]", id="two-clusters"),
    pytest.param("gkc", lambda doc: _list_twice(doc, 0),
                 "user id {first!r} is listed 2 times, by clusters [0]", id="one-band"),
    pytest.param("profile", lambda doc: doc["clusters"][3].update(price=None),
                 "the tariff needs a finite price for every cluster", id="profile-price"),
    pytest.param("gkc", lambda doc: doc["clusters"][0].update(price=None),
                 "the tariff needs a finite price for every cluster", id="gkc-price"),
    pytest.param("profile", lambda doc: doc["clusters"][2]["members"].clear(),
                 "every cluster must be nonempty", id="empty-cluster"),
    pytest.param("gkc", lambda doc: doc.update(kind="band"),
                 "unknown clustering kind 'band'", id="kind"),
    pytest.param("gkc", lambda doc: doc.update(k=999),
                 "the tariff's 'k' must be {k}, not 999", id="gkc-k"),
    pytest.param("profile", lambda doc: doc.update(k=999),
                 "the tariff's 'k' must be {k}, not 999", id="profile-k"),
    pytest.param("gkc", lambda doc: doc.update(method="bogus"),
                 "the tariff's 'method' must be 'gkc' or 'skc', not 'bogus'", id="method"),
    pytest.param("profile", lambda doc: doc.update(metric="bogus"),
                 "the tariff's 'metric' must be 'sqeuclidean' or 'l1', not 'bogus'",
                 id="metric"),
    pytest.param("profile", lambda doc: doc["clusters"][1].update(center=[0.0] * 24),
                 "profile has zero total consumption; rate undefined", id="zero-center"),
])
def test_untrustworthy_tariff_file_is_refused_at_load(
        tmp_path, tariff_files, capsys, command, method, edit, message):
    doc = json.loads((tariff_files / f"clustering_{method}.json").read_text())
    message = message.format(first=doc["clusters"][0]["members"][0], k=doc["k"])
    edit(doc)
    clustering = tmp_path / "edited.json"
    clustering.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert _run(command, "--config", tariff_files / "config.json", "--out", out,
                "--corpus", tariff_files / "corpus.csv", "--clustering", clustering) == 1
    assert f"validation error: {clustering}: {message}\n" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def _raise_price(doc):   # band 0's price moves off its range's midpoint
    doc["clusters"][0]["price"] += 10.0


def _scale_center(doc):   # a doubled center keeps its MCI, not its members' mean
    doc["clusters"][0]["center"] = [2.0 * v for v in doc["clusters"][0]["center"]]


@pytest.mark.parametrize("command", ["vulnerability", "diversity"])
@pytest.mark.parametrize("method, flags, edit", [
    pytest.param("gkc", (), _raise_price, id="gkc-price"),
    pytest.param("skc", (), _raise_price, id="skc-price"),
    pytest.param("gkc", ("--rho", "1.0"), lambda doc: doc.update(rho=0.5), id="rho-edit"),
    pytest.param("profile", (), _scale_center, id="center-scaled"),
])
def test_tampered_tariff_numbers_are_refused_at_load(
        tmp_path, tariff_files, capsys, command, method, flags, edit):
    config, corpus = tariff_files / "config.json", tariff_files / "corpus.csv"
    assert _run("cluster", "--config", config, "--out", tmp_path, "--corpus", corpus,
                "--method", method, *flags) == 0
    doc = json.loads((tmp_path / f"clustering_{method}.json").read_text())
    edit(doc)
    first = doc["clusters"][0]
    if method == "profile":
        message = (f"1 of {doc['k']} cluster centers are not their members' mean "
                   f"profiles (first: cluster 0)")
    elif flags:   # each band's farthest member sits at an end of its rate range
        worst = max(abs(v - c["price"]) for c in doc["clusters"] for v in c["rate_range"])
        assert worst > 0.5
        message = (f"a member's rate lies {worst!r} from its band's price, "
                   f"more than the tariff's rho=0.5")
    else:
        midpoint = (first["rate_range"][0] + first["rate_range"][1]) / 2.0
        message = (f"1 of {doc['k']} band prices are not the midpoints of their rate "
                   f"ranges (first: band 0, price {first['price']!r}, midpoint {midpoint!r})")
    clustering = tmp_path / "edited.json"
    clustering.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run(command, "--config", config, "--out", out, "--corpus", corpus,
                "--clustering", clustering) == 1
    assert capsys.readouterr().err == (
        f"gridrates: validation error: {clustering}: {message}\n")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["vulnerability", "diversity"])
@pytest.mark.parametrize("method, cluster, key", [
    ("gkc", None, "clusters"), ("gkc", None, "rho"), ("gkc", None, "method"),
    ("gkc", None, "k"), ("gkc", 0, "members"), ("gkc", 0, "price"), ("gkc", 0, "rate_range"),
    ("profile", None, "clusters"), ("profile", None, "k"), ("profile", None, "metric"),
    ("profile", 2, "members"), ("profile", 2, "price"), ("profile", 2, "center"),
])
def test_tariff_file_without_a_key_is_refused_at_load(
        tmp_path, tariff_files, capsys, command, method, cluster, key):
    doc = json.loads((tariff_files / f"clustering_{method}.json").read_text())
    del (doc if cluster is None else doc["clusters"][cluster])[key]
    clustering = tmp_path / "edited.json"
    clustering.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert _run(command, "--config", tariff_files / "config.json", "--out", out,
                "--corpus", tariff_files / "corpus.csv", "--clustering", clustering) == 1
    where = "the tariff" if cluster is None else f"cluster {cluster}"
    assert capsys.readouterr().err == (
        f"gridrates: validation error: {clustering}: {where} has no {key!r} key\n")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("text", [
    "[]", "5", '{"kind": "rate", "method": "gkc", "rho": 0.5, "clusters": [[]]}',
], ids=["list", "number", "cluster-list"])
def test_tariff_file_that_is_no_object_is_refused_at_load(tmp_path, tariff_files, capsys, text):
    clustering = tmp_path / "edited.json"
    clustering.write_text(text)
    assert _run("diversity", "--config", tariff_files / "config.json", "--out", tmp_path / "out",
                "--corpus", tariff_files / "corpus.csv", "--clustering", clustering) == 1
    where = "cluster 0" if "clusters" in text else "the tariff"
    assert capsys.readouterr().err == (
        f"gridrates: validation error: {clustering}: {where} is not a JSON object\n")


def _edit_cluster(j, **values):
    return lambda doc: doc["clusters"][j].update(values)


@pytest.mark.parametrize("method, edit, message", [
    pytest.param("gkc", lambda doc: doc.update(clusters=5),
                 "the tariff's 'clusters' must be a list, not a number", id="clusters-number"),
    pytest.param("gkc", lambda doc: doc.update(clusters=[]),
                 "the tariff's 'clusters' is empty", id="clusters-empty"),
    pytest.param("gkc", lambda doc: doc.update(rho=None),
                 "the tariff's 'rho' must be a number, not null", id="rho-null"),
    pytest.param("gkc", lambda doc: doc.update(rho="0.5"),
                 "the tariff's 'rho' must be a number, not a string", id="rho-string"),
    pytest.param("gkc", lambda doc: doc.update(rho=True),
                 "the tariff's 'rho' must be a number, not a boolean", id="rho-bool"),
    pytest.param("gkc", lambda doc: doc.update(method=7),
                 "the tariff's 'method' must be a string, not a number", id="method-number"),
    pytest.param("profile", lambda doc: doc.update(metric=7),
                 "the tariff's 'metric' must be a string, not a number", id="metric-number"),
    pytest.param("gkc", lambda doc: doc.update(k="26"),
                 "the tariff's 'k' must be a number, not a string", id="k-string"),
    pytest.param("profile", lambda doc: doc.update(k=None),
                 "the tariff's 'k' must be a number, not null", id="k-null"),
    pytest.param("gkc", _edit_cluster(0, members="u0001"),
                 "cluster 0's 'members' must be a list, not a string", id="members-string"),
    pytest.param("gkc", _edit_cluster(1, members=[5]),
                 "cluster 1's 'members' must hold strings only", id="member-number"),
    pytest.param("gkc", _edit_cluster(0, price="1.0"),
                 "cluster 0's 'price' must be a number or null, not a string", id="price-string"),
    pytest.param("gkc", _edit_cluster(2, rate_range=[1.0]),
                 "cluster 2's 'rate_range' must be a list of 2 numbers", id="rate-range-short"),
    pytest.param("gkc", _edit_cluster(0, rate_range={"lo": 1.0}),
                 "cluster 0's 'rate_range' must be a list, not an object", id="rate-range-object"),
    pytest.param("profile", lambda doc: doc["clusters"][3]["center"].pop(),
                 "cluster 3's 'center' must be a list of 24 numbers", id="center-short"),
    pytest.param("profile", _edit_cluster(1, center=["0.5"] * 24),
                 "cluster 1's 'center' must be a list of 24 numbers", id="center-strings"),
])
def test_tariff_file_with_a_wrongly_typed_value_is_refused_at_load(
        tmp_path, tariff_files, capsys, method, edit, message):
    doc = json.loads((tariff_files / f"clustering_{method}.json").read_text())
    edit(doc)
    clustering = tmp_path / "edited.json"
    clustering.write_text(json.dumps(doc))
    assert _run("diversity", "--config", tariff_files / "config.json", "--out", tmp_path / "out",
                "--corpus", tariff_files / "corpus.csv", "--clustering", clustering) == 1
    assert capsys.readouterr().err == (
        f"gridrates: validation error: {clustering}: {message}\n")


def _run_module(*argv):
    """`python -m gridrates` in a new process, with the package's source on its path."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "gridrates", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60)


def test_package_runs_as_a_module_without_an_install():
    done = _run_module("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: gridrates ")
    assert "vulnerability" in done.stdout


_BAD_PREFIX = ("id_prefix must be a string with no NUL and no leading whitespace, "
               "which a written corpus cannot keep; got ")


@pytest.mark.parametrize("config, message", [
    ({"k": 0}, "k must be >= 1"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"corpus_overrides": {"id_prefix": "u\0"}}, _BAD_PREFIX + "'u\\x00'"),
    ({"corpus_overrides": {"id_prefix": " u"}}, _BAD_PREFIX + "' u'"),
    ({"corpus_overrides": {"id_prefix": 5}}, _BAD_PREFIX + "5"),
    ({"corpus_overrides": {"horizon": 2.5}},
     "corpus_overrides's 'horizon' must be an integer, not a number"),
    ({"corpus_overrides": {"horizon": True}},
     "corpus_overrides's 'horizon' must be an integer, not a boolean"),
    ({"corpus_overrides": {"base_level": "0.1"}},
     "corpus_overrides's 'base_level' must be a number, not a string"),
    ({"corpus_overrides": {"peak_widths": 2.0}},
     "corpus_overrides's 'peak_widths' must be a list, not a number"),
    ({"corpus_overrides": {"total_range": [1000, 2000, 3]}},
     "corpus_overrides's 'total_range' must be a list of 2 numbers"),
    ({"corpus_overrides": {"total_range": []}},
     "corpus_overrides's 'total_range' must be a list of 2 numbers"),
    ({"corpus_overrides": {"peak_locations": ["a", 1, 2, 3]}},
     "corpus_overrides's 'peak_locations' must be a list of 4 numbers"),
    ({"corpus_overrides": {"mixture_concentration": [1, 1, 1, False]}},
     "corpus_overrides's 'mixture_concentration' must be a list of 4 numbers"),
    ({"corpus_overrides": {"kind": "commercial"}}, "unknown corpus_overrides keys: ['kind']"),
    ({"corpus_overrides": {"n_users": 5}}, "unknown corpus_overrides keys: ['n_users']"),
    ({"corpus_overrides": {"seed": 1, "peaks": [1.0]}},
     "unknown corpus_overrides keys: ['peaks', 'seed']"),
    ({"rho": 10**400}, "int too large to convert to float"),
], ids=["k", "seed", "nul-prefix", "space-prefix", "int-prefix", "horizon-float",
        "horizon-bool", "level-string", "widths-number", "range-three", "range-empty",
        "peak-string", "mix-bool", "override-kind", "override-n-users", "override-unknown",
        "rho-huge-int"])
def test_bad_config_is_refused_before_out_is_made(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_users": 50, **config}))
    out = tmp_path / "out"
    assert _run("datagen", "--config", path, "--out", out) == 1
    assert f"validation error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"horizon": 0}, "horizon must be >= 1, got 0"),
    ({"horizon": -2}, "horizon must be >= 1, got -2"),
    ({"peak_locations": [], "peak_widths": [], "mixture_concentration": []},
     "peak_locations must hold at least one archetype"),
    ({"mixture_concentration": [-1, 0.5, 0.9, 0.3]},
     "every value of mixture_concentration must be > 0, got [-1, 0.5, 0.9, 0.3]"),
    ({"peak_widths": [0, 2.2, 2.2, 2.5]},
     "every value of peak_widths must be > 0, got [0, 2.2, 2.2, 2.5]"),
    ({"peak_widths": [1.8, -1, 2.2, 2.5]},
     "every value of peak_widths must be > 0, got [1.8, -1, 2.2, 2.5]"),
], ids=["horizon-zero", "horizon-negative", "no-archetype", "concentration-negative",
        "width-zero", "width-negative"])
def test_corpus_override_out_of_range_is_refused_before_out_is_made(
        tmp_path, capsys, overrides, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_users": 30, "corpus_overrides": overrides}))
    out = tmp_path / "out"
    assert _run("datagen", "--config", path, "--out", out) == 1
    assert capsys.readouterr().err == f"gridrates: validation error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("argv, config, field", [
    (("cluster", "--method", "gkc", "--rho", "nan"), {}, "rho"),
    (("cluster", "--method", "gkc", "--rho", "inf"), {}, "rho"),
    (("vulnerability", "--theta-step", "nan"), {}, "theta_step"),
    (("vulnerability", "--theta-step", "inf"), {}, "theta_step"),
    (("price",), {"a": float("inf")}, "a"),
    (("price",), {"b": float("nan")}, "b"),
    (("price",), {"b": float("-inf")}, "b"),
    (("price",), {"c": float("nan")}, "c"),
    (("price",), {"c": float("inf")}, "c"),
    (("sensitivity", "--rho-grid", "nan,0.5"), {}, "rho"),
    (("sensitivity", "--rho-grid", "0.5,inf"), {}, "rho"),
])
def test_non_finite_config_is_validation_error(tmp_path, capsys, argv, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_users": 50, **config}))   # NaN and Infinity literals
    out = tmp_path / "out"
    if argv[0] == "vulnerability":
        argv += ("--clustering", tmp_path / "clustering.json")
    assert _run(*argv, "--config", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert re.search(rf"validation error: .*\b{field} must be finite", err), err
    assert list(out.glob("*")) == []


def test_theta_grid_size_is_checked_before_it_is_built(tmp_path, capsys, monkeypatch):
    assert len(RunConfig(theta_step=1e-5).validate().theta_grid()) == 20_001

    def built(self):
        raise AssertionError("theta grid built")

    monkeypatch.setattr(RunConfig, "theta_grid", built)
    for step, points in (("1e-9", "2e+08"), ("1e-300", "2e+299"), ("5e-324", "inf")):
        out = tmp_path / step
        assert _run("vulnerability", "--out", out, "--corpus", tmp_path / "corpus.csv",
                    "--clustering", tmp_path / "clustering.json", "--theta-step", step) == 1
        err = capsys.readouterr().err
        assert f"theta_step={float(step)!r} with theta_max=0.2 gives {points} theta points" in err
        assert str(MAX_THETA_POINTS) in err
        assert list(out.glob("*")) == []


def _result_files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())
            if not path.name.startswith("meta_")}


@pytest.mark.parametrize("method, flags", [
    ("profile", ()), ("profile", ("--strict",)), ("gkc", ()), ("skc", ()),
])
def test_vulnerability_files_do_not_depend_on_the_user_chunk(
        tmp_path, small_config, monkeypatch, method, flags):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    clustering = tmp_path / f"clustering_{method}.json"
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", method) == 0
    files = {}
    for chunk in (7, 10**6):   # 300 users: the last of 43 chunks is ragged, or one chunk
        monkeypatch.setattr(vulnerability, "_REPORT_CHUNK", chunk)
        assert _run("vulnerability", "--config", small_config, "--out", tmp_path / str(chunk),
                    "--corpus", corpus, "--clustering", clustering, *flags) == 0
        files[chunk] = _result_files(tmp_path / str(chunk))
    assert len(files[7]) == 4 and files[7] == files[10**6]

    if method != "gkc":
        return
    # worst_pairs keeps a stable sort by gap over the pairs in tariff order
    cfg = RunConfig.from_file(small_config)
    pop = ingest_csv(corpus).population
    curve = price_curve(cfg.cost_model(), aggregate(pop))
    tariff = cli._load_clustering(clustering, cfg, pop, curve)
    rows = np.arange(len(tariff.labels))
    user, target, gap = vulnerability.Audit(tariff, theta=0.2).add(rows).pairs
    pairs = list(zip(tariff.user_ids[user].tolist(), target.tolist(), gap.tolist()))
    worst = [tuple(p) for p in json.loads(files[7]["smoothness.json"])["worst_pairs"]]
    assert worst == sorted(pairs, key=lambda p: -p[2])[:20]
    # tied gaps whose users are out of id order and in different chunks of 7
    ids = sorted(pop.user_ids)
    assert any(a[2] == b[2] and a[0] > b[0] and ids.index(a[0]) // 7 != ids.index(b[0]) // 7
               for a, b in zip(worst, worst[1:]))


def test_vulnerability_memory_stays_flat_on_a_many_band_tariff(tmp_path):
    # a band-tariff-sized skc tariff: 2500 users, about 200 bands
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_users": 2500, "seed": 7, "k": 30,
                                  "corpus_overrides": {"total_range": [3200.0, 7200.0]}}))
    corpus = tmp_path / "corpus.csv"
    assert _run("datagen", "--config", config, "--out", tmp_path) == 0
    assert _run("cluster", "--config", config, "--out", tmp_path,
                "--corpus", corpus, "--method", "skc") == 0
    assert json.loads((tmp_path / "clustering_skc.json").read_text())["k"] >= 150
    tracemalloc.start()
    try:
        assert _run("vulnerability", "--config", config, "--out", tmp_path,
                    "--corpus", corpus, "--clustering", tmp_path / "clustering_skc.json") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


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
    # the sidecar says whether the drill-down's k-means converged: the facts
    # of the same run on the cluster's members
    members = [uid for cluster in sub["clusters"] for uid in cluster["members"]]
    pop = ingest_csv(corpus).population
    rerun = kmeans_profiles(Population(members, pop.consumption[pop.rows_of(members)]),
                            k=3, seed=17)
    meta = json.loads((tmp_path / "meta_diversity.json").read_text())
    assert meta["drilled"] == [0]
    assert meta["drill_kmeans"] == {"0": {
        "n_iter": rerun.n_iter, "label_fixpoint": rerun.label_fixpoint,
        "inertia": rerun.inertia, "empty_cluster_repairs": rerun.empty_cluster_repairs}}
    assert meta["drill_kmeans"]["0"]["n_iter"] >= 1


@pytest.mark.parametrize("flags, message", [
    (("--drill", "x"), "bad --drill 'x'; expected comma-separated ints"),
    (("--drill", "0,1.5"), "bad --drill '0,1.5'"),
    (("--drill-k", "0"), "--drill-k must be >= 1, got 0"),
    (("--drill-k", "-2"), "--drill-k must be >= 1, got -2"),
    (("--drill", "0,3,0"), "--drill index 0 is given more than once"),
])
def test_diversity_flag_errors_name_the_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert _run("diversity", "--out", out, "--corpus", tmp_path / "corpus.csv",
                "--clustering", tmp_path / "clustering.json", "--drill", "0", *flags) == 1
    assert f"validation error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_diversity_drill_index_out_of_range(tmp_path, tariff_files, capsys):
    k = json.loads((tariff_files / "clustering_gkc.json").read_text())["k"]
    out = tmp_path / "out"
    assert _run("diversity", "--config", tariff_files / "config.json", "--out", out,
                "--corpus", tariff_files / "corpus.csv",
                "--clustering", tariff_files / "clustering_gkc.json", "--drill", f"0,{k}") == 1
    assert f"validation error: --drill index {k} out of range (k={k})" in capsys.readouterr().err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("flags, message", [
    (("--rho-grid", "x"), "bad --rho-grid 'x'; expected comma-separated floats"),
    (("--a-grid", "1e-4,y"), "bad --a-grid '1e-4,y'; expected comma-separated floats"),
    (("--a-grid", ""), "--a-grid '' holds no value; expected comma-separated floats"),
    (("--rho-grid", ","), "--rho-grid ',' holds no value; expected comma-separated floats"),
], ids=["bad-rho", "bad-a", "empty-a", "empty-rho"])
def test_sensitivity_grid_errors_name_the_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert _run("sensitivity", "--out", out, "--corpus", tmp_path / "corpus.csv", *flags) == 1
    assert f"validation error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_exits_3_on_a_failed_criterion(tmp_path, capsys, monkeypatch):
    failed = acceptance.CheckResult(4, "band criterion", False, "gap 0.7 > rho 0.5", 0.01)
    monkeypatch.setattr(acceptance, "run_all", lambda out_dir, emit: [failed])
    assert _run("verify", "--out", tmp_path) == 3
    assert "verify: FAILED criteria [4]" in capsys.readouterr().err
    lines = (tmp_path / "acceptance_report.csv").read_text().splitlines()
    assert lines[1:] == ["criterion,name,verdict", "4,band criterion,fail"]
    meta = json.loads((tmp_path / "meta_verify.json").read_text())
    assert meta["results"] == [{"criterion": 4, "passed": False,
                                "detail": "gap 0.7 > rho 0.5", "elapsed_s": 0.01}]


def test_diversity_drill_skips_blank_entries_as_grids_do(tmp_path, small_config):
    assert _run("datagen", "--config", small_config, "--out", tmp_path) == 0
    corpus = tmp_path / "corpus.csv"
    assert _run("cluster", "--config", small_config, "--out", tmp_path,
                "--corpus", corpus, "--method", "gkc") == 0
    assert _run("diversity", "--config", small_config, "--out", tmp_path / "d",
                "--corpus", corpus, "--clustering", tmp_path / "clustering_gkc.json",
                "--drill", "0,,1,") == 0
    assert sorted(p.name for p in (tmp_path / "d").glob("subclusters_*")) == [
        "subclusters_0.json", "subclusters_1.json"]


def test_every_sidecar_records_peak_memory_and_versions(tmp_path, small_config, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", lambda out_dir, emit: [])   # verify, not its criteria
    corpus = tmp_path / "corpus.csv"
    tariff = tmp_path / "clustering_profile.json"
    runs = [
        ("datagen",), ("price", "--corpus", corpus),
        ("cluster", "--corpus", corpus, "--method", "profile"),
        ("cluster", "--corpus", corpus, "--method", "gkc"),
        ("cluster", "--corpus", corpus, "--method", "skc"),
        ("vulnerability", "--corpus", corpus, "--clustering", tariff),
        ("sensitivity", "--corpus", corpus, "--rho-grid", "0.5", "--a-grid", "0.00012"),
        ("diversity", "--corpus", corpus, "--clustering", tariff),
        ("verify",),
    ]
    for argv in runs:
        assert _run(argv[0], "--config", small_config, "--out", tmp_path, *argv[1:]) == 0
    sidecars = sorted(tmp_path.glob("meta_*.json"))
    assert [p.name for p in sidecars] == [
        "meta_cluster_gkc.json", "meta_cluster_profile.json", "meta_cluster_skc.json",
        "meta_datagen.json", "meta_diversity.json", "meta_price.json",
        "meta_sensitivity.json", "meta_verify.json", "meta_vulnerability.json"]
    for path in sidecars:
        meta = json.loads(path.read_text())
        assert 1.0 < meta["peak_rss_mb"] < 1e5, path.name
        assert meta["versions"] == {"gridrates": __version__, "numpy": np.__version__,
                                    "python": platform.python_version()}, path.name
        # stage times; the commands with a price curve say it has no price <= 0
        if path.name in ("meta_datagen.json", "meta_verify.json"):
            assert sorted(meta["stages"]) == ["compute", "write"], path.name
            assert "nonpositive_prices" not in meta, path.name
        else:
            assert sorted(meta["stages"]) == ["compute", "load", "write"], path.name
            assert meta["nonpositive_prices"] is None, path.name
            # np.loadtxt read every row of the datagen corpus
            assert meta["n_excluded"] == 0 and meta["csv_rows"] == 0, path.name
        assert all(0.0 <= s < 60.0 for s in meta["stages"].values()), path.name


# every sidecar's keys: the ones each sidecar has, the ones of a command that
# loads a corpus, and each command's own
_META_KEYS = {"command", "config_hash", "peak_rss_mb", "stages", "versions"}
_LOAD_KEYS = {"n_users", "n_excluded", "excluded_by_reason", "csv_rows", "nonpositive_prices"}
_KMEANS_KEYS = {"n_iter", "label_fixpoint", "inertia", "empty_cluster_repairs"}
_SIDECAR_KEYS = {
    "meta_datagen.json": _META_KEYS | {"n_users", "horizon"},
    "meta_price.json": _META_KEYS | _LOAD_KEYS,
    "meta_cluster_profile.json": _META_KEYS | _LOAD_KEYS | _KMEANS_KEYS | {
        "method", "n_clusters", "wall_time_s"},
    "meta_cluster_gkc.json": _META_KEYS | _LOAD_KEYS | {
        "method", "n_clusters", "wall_time_s", "criterion_ok", "criterion_worst_gap",
        "minimal_certified"},
    "meta_cluster_skc.json": _META_KEYS | _LOAD_KEYS | _KMEANS_KEYS | {
        "method", "n_clusters", "wall_time_s", "base_wall_time_s", "skc_max_depth",
        "criterion_ok", "criterion_worst_gap"},
    "meta_vulnerability.json": _META_KEYS | _LOAD_KEYS | {
        "theta_ref", "strict", "effort_s", "n_effort_pairs", "n_exact_pairs",
        "n_unreachable_pairs", "n_reported_efforts", "n_reachable_pairs"},
    "meta_sensitivity.json": _META_KEYS | _LOAD_KEYS | {
        "nonpositive_prices_a", "rho_points", "a_points"},
    "meta_diversity.json": _META_KEYS | _LOAD_KEYS | {"drilled", "drill_kmeans"},
    "meta_verify.json": _META_KEYS | {"results"},
}


def test_every_sidecar_has_its_key_set(tmp_path, small_config, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", lambda out_dir, emit: [])   # verify, not its criteria
    corpus = tmp_path / "corpus.csv"
    tariff = tmp_path / "clustering_gkc.json"
    for argv in (("datagen",), ("price", "--corpus", corpus),
                 *(("cluster", "--corpus", corpus, "--method", method)
                   for method in ("profile", "gkc", "skc")),
                 ("vulnerability", "--corpus", corpus, "--clustering", tariff),
                 ("sensitivity", "--corpus", corpus, "--rho-grid", "0.5"),
                 ("diversity", "--corpus", corpus, "--clustering", tariff, "--drill", "0"),
                 ("verify",)):
        assert _run(argv[0], "--config", small_config, "--out", tmp_path, *argv[1:]) == 0
    got = {path.name: sorted(json.loads(path.read_text()))
           for path in tmp_path.glob("meta_*.json")}
    assert got == {name: sorted(keys) for name, keys in _SIDECAR_KEYS.items()}


def test_every_corpus_command_reads_its_inputs_once_in_its_load_stage(
        tmp_path, tariff_files, monkeypatch):
    # each call of the corpus, load and price-curve builders, with its outermost open stage
    calls, open_stages = [], []
    stage = cli._stage

    @contextmanager
    def named_stage(record, name):
        open_stages.append(name)
        with stage(record, name):
            yield
        open_stages.pop()

    monkeypatch.setattr(cli, "_stage", named_stage)
    for name in ("ingest_csv", "aggregate", "price_curve"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls.append((_name, open_stages[0]))
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)

    tariff = ("--clustering", tariff_files / "clustering_profile.json")
    for argv in (("price",), ("cluster", "--method", "gkc"), ("vulnerability", *tariff),
                 ("sensitivity", "--rho-grid", "0.5", "--a-grid", "0.00012,0.00024"),
                 ("diversity", *tariff, "--drill", "0")):
        calls.clear()
        assert _run(argv[0], "--config", tariff_files / "config.json", "--out",
                    tmp_path / argv[0], "--corpus", tariff_files / "corpus.csv", *argv[1:]) == 0
        # sensitivity prices its --a-grid besides, in `compute`
        grid = [("price_curve", "compute")] * 2 if argv[0] == "sensitivity" else []
        assert calls == [("ingest_csv", "load"), ("aggregate", "load"),
                         ("price_curve", "load"), *grid], argv[0]


def test_sidecars_record_dropped_efforts_and_clustering_work(tmp_path, small_config):
    corpus = tmp_path / "corpus.csv"
    tariff = tmp_path / "clustering_profile.json"
    for argv in (("datagen",), ("cluster", "--corpus", corpus, "--method", "profile"),
                 ("cluster", "--corpus", corpus, "--method", "skc"),
                 ("vulnerability", "--corpus", corpus, "--clustering", tariff)):
        assert _run(argv[0], "--config", small_config, "--out", tmp_path, *argv[1:]) == 0
    meta = {name: json.loads((tmp_path / f"meta_{name}.json").read_text())
            for name in ("cluster_profile", "cluster_skc", "vulnerability")}

    # the reported efforts are those <= theta; the finite ones above it are dropped
    audit = meta["vulnerability"]
    profile = Tariff.from_json(tariff.read_text())
    efforts = vulnerability.effort_rows(profile, ingest_csv(corpus).population)(
        np.arange(len(profile.labels)))
    docs = json.loads((tmp_path / "disguise_reports.json").read_text())
    assert audit["n_reported_efforts"] == sum(len(doc["mu_per_target"]) for doc in docs)
    assert audit["n_reported_efforts"] == (efforts <= audit["theta_ref"]).sum() > 0
    dropped = audit["n_effort_pairs"] - audit["n_unreachable_pairs"] - audit["n_reported_efforts"]
    assert dropped == (np.isfinite(efforts) & (efforts > audit["theta_ref"])).sum() > 0

    for name in ("cluster_profile", "cluster_skc"):
        repairs = meta[name]["empty_cluster_repairs"]
        assert isinstance(repairs, int) and repairs >= 0, name
    # skc split some of the 8 base clusters; each split adds one band
    assert meta["cluster_skc"]["n_clusters"] > 8
    assert 1 <= meta["cluster_skc"]["skc_max_depth"] < meta["cluster_skc"]["n_clusters"]
    assert "skc_max_depth" not in meta["cluster_profile"]


def test_sidecars_record_nonpositive_prices(tmp_path):
    # slots 0-11 carry 40 * ~1000 = ~4e4 load, priced 0.00012 * 4e4 - 37.38 < 0
    # at the default cost model; slots 12-23 carry 8e5 and are priced > 0
    corpus = tmp_path / "corpus.csv"
    rows = [f"u{i}," + ",".join([str(1000 + i)] * 12 + [str(20000 - i)] * 12)
            for i in range(40)]
    corpus.write_text("user_id," + ",".join(f"t{t}" for t in range(24)) + "\n"
                      + "\n".join(rows) + "\n")
    tariff = tmp_path / "clustering_gkc.json"
    with pytest.warns(PriceWarning):
        for argv in (("price",), ("cluster", "--method", "gkc"),
                     ("vulnerability", "--clustering", tariff),
                     ("diversity", "--clustering", tariff),
                     ("sensitivity", "--rho-grid", "0.5", "--a-grid", "0.00012,0.001")):
            assert _run(argv[0], "--corpus", corpus, "--out", tmp_path, *argv[1:]) == 0
    loads = np.array([sum(1000 + i for i in range(40))] * 12)
    low = float((0.00012 * loads - 37.38).min())
    for name in ("price", "cluster_gkc", "vulnerability", "diversity", "sensitivity"):
        meta = json.loads((tmp_path / f"meta_{name}.json").read_text())
        assert meta["nonpositive_prices"] == {"n": 12, "min": pytest.approx(low)}, name
    meta = json.loads((tmp_path / "meta_sensitivity.json").read_text())
    assert meta["nonpositive_prices_a"] == [0.00012]   # a = 0.001 prices every slot > 0


def test_non_utf8_corpus_names_file_and_line(tmp_path, capsys):
    corpus = tmp_path / "latin1.csv"
    rows = [f"u{i}," + ",".join(["1000"] * 24) for i in range(40)]
    rows[30] = "caf\xe9," + ",".join(["1000"] * 24)
    corpus.write_bytes("\r\n".join(["user_id," + ",".join(f"t{t}" for t in range(24))]
                                    + rows).encode("latin-1"))
    assert _run("price", "--corpus", corpus, "--out", tmp_path) == 1
    assert capsys.readouterr().err == (
        f"gridrates: validation error: {corpus} line 32: byte 0xe9 is not UTF-8 "
        "(invalid continuation byte)\n")


@pytest.mark.parametrize("spelling", ["u0004\x00", '"u0004\x00"'])
def test_user_id_with_nul_is_validation_error(tmp_path, capsys, spelling):
    # numpy str arrays drop a trailing NUL, so this id would merge with u0004;
    # a quote sends the chunk to csv.reader, which must refuse it too
    corpus = tmp_path / "nul.csv"
    rows = [f"u{i:04d}," + ",".join([str(1000 + 7 * i)] * 24) for i in range(40)]
    rows[5] = spelling + rows[5][5:]
    corpus.write_text("user_id," + ",".join(f"t{t}" for t in range(24)) + "\n"
                      + "\n".join(rows) + "\n")
    assert _run("cluster", "--corpus", corpus, "--out", tmp_path, "--method", "gkc") == 1
    assert capsys.readouterr().err == (
        "gridrates: validation error: row 7: user_id contains NUL\n")
    assert not (tmp_path / "rates_gkc.csv").exists()


def test_blank_corpus_line_names_its_row(tmp_path, capsys):
    corpus = tmp_path / "blank.csv"
    corpus.write_text("user_id,t0,t1\na,1,2\n\nb,3,4\n")
    assert _run("price", "--corpus", corpus, "--out", tmp_path) == 1
    assert capsys.readouterr().err == f"gridrates: validation error: {corpus} row 3: blank line\n"


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


@pytest.mark.parametrize("command", [("price",), ("cluster", "--method", "profile")],
                         ids=["price", "cluster"])
@pytest.mark.parametrize("doc, message", [
    pytest.param({"seed": 1.5}, "'seed' must be an integer, not a number", id="seed-float"),
    pytest.param({"seed": True}, "'seed' must be an integer, not a boolean", id="seed-bool"),
    pytest.param({"n_users": 100.5}, "'n_users' must be an integer, not a number", id="n-float"),
    pytest.param({"k": 2.5}, "'k' must be an integer or null, not a number", id="k-float"),
    pytest.param({"rho": "0.5"}, "'rho' must be a number, not a string", id="rho-string"),
    pytest.param({"theta_max": None}, "'theta_max' must be a number, not null", id="theta-null"),
    pytest.param({"corpus_kind": "industrial"},
                 "'corpus_kind' must be 'residential' or 'commercial', not 'industrial'",
                 id="kind-unknown"),
    pytest.param({"metric": "cosine"}, "'metric' must be 'sqeuclidean' or 'l1', not 'cosine'",
                 id="metric-unknown"),
    pytest.param(5, "the config is not a JSON object", id="doc-number"),
    pytest.param(None, "the config is not a JSON object", id="doc-null"),
])
def test_config_value_of_a_wrong_type_or_unknown_is_validation_error(
        tmp_path, capsys, command, doc, message):
    config = tmp_path / "config.json"
    if isinstance(doc, dict):   # one wrong value in a good config
        doc, message = {**_SMALL_CONFIG, **doc}, f"the config's {message}"
    config.write_text(json.dumps(doc))
    assert _run(*command, "--config", config, "--out", tmp_path) == 1
    assert capsys.readouterr().err == f"gridrates: validation error: {message}\n"


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


@pytest.mark.parametrize("doc, same", [
    ({"rho": 1}, {"rho": 1.0}),
    ({"a": 1, "b": -37, "c": 0, "theta_max": 0, "theta_step": 1},
     {"a": 1.0, "b": -37.0, "c": 0.0, "theta_max": 0.0, "theta_step": 1.0}),
    ({"corpus_overrides": {"base_level": 0, "total_range": [800, 1800]}},
     {"corpus_overrides": {"base_level": 0.0, "total_range": [800.0, 1800.0]}}),
], ids=["rho", "every-float-key", "overrides"])
def test_a_float_written_as_an_integer_hashes_alike(doc, same):
    assert RunConfig.from_dict(doc).hash() == RunConfig.from_dict(same).hash()


_BAD_INPUT = {errors.ZeroProfile, errors.EmptyPopulation, errors.MalformedRow,
              errors.InconsistentHorizon, errors.KTooLarge, errors.ConfigError}
_ERROR_CLASSES = [value for value in vars(errors).values()
                  if isinstance(value, type) and issubclass(value, Exception)
                  and value is not errors.PriceWarning]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_exception_type(tmp_path, capsys, monkeypatch, cls):
    exc = cls(7, "bad row") if cls is errors.MalformedRow else cls("bad thing")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_price", fail)
    code = _run("price", "--out", tmp_path)
    err = capsys.readouterr().err
    assert issubclass(cls, ValueError) == (cls in _BAD_INPUT)
    if cls in _BAD_INPUT:
        assert (code, err) == (1, f"gridrates: validation error: {exc}\n")
    else:
        assert (code, err) == (2, f"gridrates: runtime error: {cls.__name__}: {exc}\n")


def test_bad_input_exits_1_from_the_process(tmp_path):
    # KTooLarge raised by kmeans_profiles: more clusters than users
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_SMALL_CONFIG, "n_users": 20, "k": 21,
                                  "corpus_overrides": {"total_range": [390000.0, 900000.0]}}))
    done = _run_module("cluster", "--method", "profile", "--config", config,
                       "--out", tmp_path / "out")
    assert (done.returncode, done.stderr) == (
        1, "gridrates: validation error: k=21 outside [1, 20]\n")
