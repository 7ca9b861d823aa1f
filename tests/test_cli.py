import csv
import json
import math
import os

import numpy as np
import pytest

from covlab import geometry as geo
from covlab.cli import main
from covlab.sampling import save_cloud_csv, uniform_sample


def test_constants_table(capsys):
    assert main(["constants", "--d", "2..4", "--k", "1..3"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["c_dk"]["3,1"] == pytest.approx(2 ** -4 * math.pi ** (5 / 3),
                                                 rel=1e-12)
    assert table["theta_d"]["3"] == pytest.approx(4 * math.pi / 3)
    assert table["c_d"]["3"] == pytest.approx(3 * math.pi ** 2 / 32)


def test_cover_subcommand(tmp_path, capsys):
    cloud = uniform_sample(geo.unit_disk(), 150, 3)
    path = str(tmp_path / "pts.csv")
    save_cloud_csv(cloud, path)
    rc = main(["cover", "--cloud", path, "--spec", "disk", "--k", "1",
               "--h", "0.02"])
    assert rc == 0
    est = json.loads(capsys.readouterr().out)
    assert 0.0 <= est["hi"] - est["lo"] <= 0.02
    assert est["k"] == 1 and est["metric"] == "geodesic"


def test_cover_with_region_and_refinement(tmp_path, capsys):
    cloud = uniform_sample(geo.unit_disk(), 200, 4)
    path = str(tmp_path / "pts.csv")
    save_cloud_csv(cloud, path)
    rc = main(["cover", "--cloud", path, "--spec", "disk", "--k", "2",
               "--h", "0.05", "--refine-to", "0.002",
               "--region", '{"kind": "interior_body", "delta": 0.2}',
               "--metric", "euclidean"])
    assert rc == 0
    est = json.loads(capsys.readouterr().out)
    assert est["h"] == pytest.approx(0.002)
    assert est["metric"] == "euclidean"
    # the argmax node respects the interior constraint
    assert np.hypot(*est["argmax"]) <= 0.8 + 1e-9


def test_cover_rejects_outside_points(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("idx,x1,x2\n0,2.0,0.0\n")
    rc = main(["cover", "--cloud", str(bad), "--spec", "disk", "--k", "1",
               "--h", "0.1"])
    assert rc == 1


def _write_cfg(tmp_path, **kw):
    doc = {
        "spec": {"family": "unit_disk"},
        "region": {"kind": "all"},
        "sampler": "binomial",
        "sizes": [64],
        "k": {"kind": "constant", "k": 1},
        "replications": 3,
        "base_seed": 11,
    }
    doc.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_weak_run_outputs_and_determinism(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["weak", "--config", cfg, "--out", out1]) == 0
    assert main(["weak", "--config", cfg, "--out", out2]) == 0
    rows1 = open(os.path.join(out1, "rows.csv"), "rb").read()
    rows2 = open(os.path.join(out2, "rows.csv"), "rb").read()
    assert rows1 == rows2
    s1 = open(os.path.join(out1, "summary.json"), "rb").read()
    s2 = open(os.path.join(out2, "summary.json"), "rb").read()
    assert s1 == s2
    assert os.path.exists(os.path.join(out1, "run_meta.json"))


def test_weak_run_seed_override_changes_rows(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["weak", "--config", cfg, "--out", out1]) == 0
    assert main(["weak", "--config", cfg, "--seed", "99", "--out", out2]) == 0
    assert (open(os.path.join(out1, "rows.csv")).read()
            != open(os.path.join(out2, "rows.csv")).read())


def test_summary_config_echo_round_trips(tmp_path, capsys):
    from covlab.harness import ExperimentConfig
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "r")
    assert main(["weak", "--config", cfg, "--out", out]) == 0
    doc = json.loads(open(os.path.join(out, "summary.json")).read())
    echoed = ExperimentConfig.from_json(doc["config"])
    assert echoed.to_json() == doc["config"]


def test_interior_and_slln_subcommands(tmp_path, capsys):
    cfg_i = _write_cfg(tmp_path, region={"kind": "interior_body", "delta": 0.3})
    out = str(tmp_path / "ri")
    assert main(["interior", "--config", cfg_i, "--out", out]) == 0
    cfg_s = _write_cfg(tmp_path, spec={"family": "unit_square"},
                       sizes=[64, 256])
    out2 = str(tmp_path / "rs")
    assert main(["slln", "--config", cfg_s, "--out", out2]) == 0
    summary = json.loads(open(os.path.join(out2, "summary.json")).read())
    assert "reference" in summary["summary"]


def test_unknown_config_key_exit_1(tmp_path, capsys):
    # a typo must not silently fall back to the default (auto-h here)
    cfg = _write_cfg(tmp_path, **{"grid-h": 0.01})
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "'grid-h'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("key,value,bad", [
    ("k", {"kind": "constant", "beta": 3}, "beta"),
    ("spec", {"family": "unit_disk", "alpha": 1.0}, "alpha"),
    ("region", {"kind": "all", "delta": 0.2}, "delta"),
    ("density", {"kind": "uniform", "f1": 1.0}, "f1"),
])
def test_unknown_nested_config_key_exit_1(tmp_path, capsys, key, value, bad):
    cfg = _write_cfg(tmp_path, **{key: value})
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert f"'{bad}'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("edit,needle", [
    (lambda d: {k: v for k, v in d.items() if k != "sizes"}, "'sizes'"),
    (lambda d: {**d, "k": 2}, "k schedule must be a JSON object"),
    (lambda d: {**d, "spec": "disk"}, "spec must be a JSON object"),
    (lambda d: {**d, "region": [1]}, "region must be a JSON object"),
    (lambda d: [d], "config must be a JSON object"),
    (lambda d: {**d, "sizes": "100"}, "sizes must be a list of numbers"),
    (lambda d: {**d, "sizes": [64, "128"]}, "sizes must be a list of numbers"),
    (lambda d: {**d, "region": {"kind": "interior_body"}}, "'delta'"),
    # the geodesic_ball region kind is gone: no grid could evaluate it
    (lambda d: {**d, "region": {"kind": "geodesic_ball"}},
     "unknown region kind 'geodesic_ball'"),
    (lambda d: {**d, "spec": {"family": "spherical_cap"}}, "'alpha'"),
    (lambda d: {**d, "grid_h": "0.1"}, "grid_h must be a number"),
    (lambda d: {**d, "replications": 2.7}, "'replications' must be an integer"),
    (lambda d: {**d, "replications": "3"}, "'replications' must be a number"),
    (lambda d: {**d, "replications": True}, "'replications' must be a number"),
    (lambda d: {**d, "base_seed": 1.9}, "'base_seed' must be an integer"),
    (lambda d: {**d, "spec": {"family": "unit_square", "d": 2.5}},
     "'d' must be an integer"),
    (lambda d: {**d, "spec": {"family": "spherical_cap", "alpha": "1.0"}},
     "'alpha' must be a number"),
    (lambda d: {**d, "k": {"kind": "constant", "k": "2"}},
     "'k' must be a number"),
    (lambda d: {**d, "k": {"kind": "constant", "k": 1.5}},
     "'k' must be an integer"),
    (lambda d: {**d, "region": {"kind": "interior_body", "delta": "0.2"}},
     "'delta' must be a number"),
    (lambda d: {**d, "k": {"kind": "beta_log", "beta": "1"}},
     "'beta' must be a number"),
    (lambda d: {**d, "k": {"kind": "power", "p": True}},
     "'p' must be a number"),
    (lambda d: {**d, "sizes": [1000.5]},
     "binomial size 1000.5 is not a whole number"),
], ids=["no_sizes", "k_int", "spec_str", "region_list", "top_list",
        "sizes_str", "sizes_entry_str", "body_no_delta", "ball_no_center",
        "cap_no_alpha", "grid_h_str", "reps_fraction", "reps_str",
        "reps_bool", "seed_fraction", "square_d_fraction", "alpha_str",
        "k_str", "k_fraction", "delta_str", "beta_str", "p_bool",
        "binomial_size_fraction"])
def test_malformed_config_exit_1(tmp_path, capsys, edit, needle):
    cfg = _write_cfg(tmp_path)
    with open(cfg) as fh:
        doc = edit(json.load(fh))
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_thread_count_exit_1(tmp_path, capsys, monkeypatch, value):
    # a bad worker count must not silently fall back to one worker
    monkeypatch.setenv("COVLAB_THREADS", value)
    cfg = _write_cfg(tmp_path)
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "COVLAB_THREADS" in err and repr(value) in err
    assert not os.path.exists(tmp_path / "x")


def _rows(outdir):
    with open(os.path.join(outdir, "rows.csv")) as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("family,size,reps", [("solid_ball", 100_000, 2),
                                              ("unit_disk", 1_000_000, 1)],
                         ids=["ball_1e5", "disk_1e6"])
def test_weak_run_at_the_size_cap(tmp_path, capsys, family, size, reps):
    # the ball at n=1e5 used to stop when its refinement windows needed
    # 5.8M nodes, above their 4M cap; both sizes are within MAX_SIZE
    cfg = _write_cfg(tmp_path, spec={"family": family}, sizes=[size],
                     replications=reps, base_seed=0, grid_h=None)
    out = str(tmp_path / "o")
    assert main(["weak", "--config", cfg, "--out", out]) == 0
    rows = _rows(out)
    assert [int(r["rep"]) for r in rows] == list(range(reps))
    for r in rows:
        lo, hi, h = float(r["lo"]), float(r["hi"]), float(r["h"])
        stats = float(r["stat_lo"]), float(r["stat_hi"])
        assert all(map(math.isfinite, (lo, hi, h, *stats)))
        assert 0.0 < lo <= hi <= lo + h


def test_readme_example_config_loads():
    from covlab.harness import ExperimentConfig
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme).read()
    block = text.split("Example experiment config:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    doc = {**json.loads(block), "mode": "weak_boundary"}
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.to_json()["grid_h"] is None


def test_refusal_exit_code_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, region={"kind": "interior_body", "delta": 0.3},
                     k={"kind": "constant", "k": 2})
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_selftest_subcommand(capsys):
    assert main(["selftest", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out


def test_sizes_and_reps_overrides(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "o")
    assert main(["weak", "--config", cfg, "--reps", "2", "--sizes", "64,128",
                 "--out", out]) == 0
    rows = open(os.path.join(out, "rows.csv")).read().strip().splitlines()
    assert len(rows) == 1 + 4  # header + 2 sizes x 2 reps
