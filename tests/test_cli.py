import argparse
import csv
import json
import math
import os
import pathlib

import numpy as np
import pytest

from covlab import geometry as geo
from covlab.cli import _build_parser, main
from covlab.sampling import save_cloud_csv, uniform_sample


def test_constants_table(capsys):
    assert main(["constants", "--d", "2..4", "--k", "1..3"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["c_dk"]["3,1"] == pytest.approx(2 ** -4 * math.pi ** (5 / 3),
                                                 rel=1e-12)
    assert table["theta_d"]["3"] == pytest.approx(4 * math.pi / 3)
    assert table["c_d"]["3"] == pytest.approx(3 * math.pi ** 2 / 32)


def test_constants_out_writes_what_it_prints(tmp_path, capsys):
    path = tmp_path / "constants.json"
    assert main(["constants", "--d", "2..3", "--k", "1..2",
                 "--out", str(path)]) == 0
    assert path.read_text() == capsys.readouterr().out


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


@pytest.mark.parametrize("token,spec", [
    ("square", geo.unit_square(2)),
    ("square:3", geo.unit_square(3)),
    ("ball", geo.solid_ball()),
    ("sphere", geo.unit_sphere()),
    ("cap:1.0", geo.spherical_cap(1.0)),
    ('{"family": "spherical_cap", "alpha": 0.7}', geo.spherical_cap(0.7)),
    ("torus", None),
], ids=["square", "square3", "ball", "sphere", "cap", "json", "unknown"])
def test_cover_spec_tokens(tmp_path, capsys, token, spec):
    path = str(tmp_path / "pts.csv")
    save_cloud_csv(uniform_sample(spec or geo.unit_disk(), 150, 5), path)
    rc = main(["cover", "--cloud", path, "--spec", token, "--h", "0.1"])
    out, err = capsys.readouterr()
    if spec is None:
        assert rc == 1 and "unknown spec 'torus'" in err and out == ""
        return
    assert rc == 0
    est = json.loads(out)
    assert 0.0 < est["lo"] <= est["hi"] <= est["lo"] + 0.1
    assert len(est["argmax"]) == spec.m


@pytest.mark.parametrize("flags,needle", [
    (["--h", "inf"], "h must be a finite number > 0, got inf"),
    (["--h", "nan"], "h must be a finite number > 0, got nan"),
    (["--h", "0.1", "--refine-to", "inf"], "target width inf is not a finite"),
    (["--h", "0.1", "--refine-to", "nan"], "target width nan is not a finite"),
], ids=["h_inf", "h_nan", "target_inf", "target_nan"])
def test_cover_non_finite_h_or_target_exit_1(tmp_path, capsys, flags, needle):
    # an infinite h or a NaN target would print "h": Infinity or NaN,
    # which is not JSON
    path = str(tmp_path / "pts.csv")
    save_cloud_csv(uniform_sample(geo.unit_disk(), 150, 3), path)
    assert main(["cover", "--cloud", path, "--spec", "disk", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and needle in err


def test_cover_rejects_outside_points(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("idx,x1,x2\n0,2.0,0.0\n")
    rc = main(["cover", "--cloud", str(bad), "--spec", "disk", "--k", "1",
               "--h", "0.1"])
    assert rc == 1


def test_cover_rejects_a_cloud_of_other_coordinates(tmp_path, capsys):
    # a sphere cloud (an index and three coordinates a row) is no disk
    # cloud: its last two columns are not read as one
    path = str(tmp_path / "sphere.csv")
    save_cloud_csv(uniform_sample(geo.unit_sphere(), 300, 1), path)
    rc = main(["cover", "--cloud", path, "--spec", "disk", "--k", "1",
               "--h", "0.1"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "line 2: 4 values" in err


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


def test_weak_run_outputs_and_determinism(tmp_path, capsys, monkeypatch):
    # a serial and a pooled run write the same result files; only
    # run_meta.json tells them apart
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    monkeypatch.setenv("COVLAB_THREADS", "1")
    assert main(["weak", "--config", cfg, "--out", str(out1)]) == 0
    monkeypatch.setenv("COVLAB_THREADS", "2")
    assert main(["weak", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("rows.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for out, workers in ((out1, 1), (out2, 2)):
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["workers"] == workers
        assert meta["wall_clock_seconds"] > 0.0


def test_weak_run_seed_override_changes_rows(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["weak", "--config", cfg, "--out", out1]) == 0
    assert main(["weak", "--config", cfg, "--seed", "99", "--out", out2]) == 0
    assert ((tmp_path / "a" / "rows.csv").read_bytes()
            != (tmp_path / "b" / "rows.csv").read_bytes())


def test_summary_config_echo_round_trips(tmp_path, capsys):
    from covlab.harness import ExperimentConfig
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "r")
    assert main(["weak", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "r" / "summary.json").read_text())
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
    summary = json.loads((tmp_path / "rs" / "summary.json").read_text())
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
    (lambda d: {**d, "sizes": "100"},
     "sizes must be a list of finite numbers"),
    (lambda d: {**d, "sizes": [64, "128"]},
     "sizes must be a list of finite numbers"),
    (lambda d: {**d, "region": {"kind": "interior_body"}}, "'delta'"),
    # the geodesic_ball region kind is gone: no grid could evaluate it
    (lambda d: {**d, "region": {"kind": "geodesic_ball"}},
     "unknown region kind 'geodesic_ball'"),
    (lambda d: {**d, "spec": {"family": "spherical_cap"}}, "'alpha'"),
    (lambda d: {**d, "grid_h": "0.1"}, "grid_h must be a finite number"),
    (lambda d: {**d, "replications": 2.7}, "'replications' must be an integer"),
    (lambda d: {**d, "replications": "3"},
     "'replications' must be a finite number"),
    (lambda d: {**d, "replications": True},
     "'replications' must be a finite number"),
    (lambda d: {**d, "base_seed": 1.9}, "'base_seed' must be an integer"),
    # numpy refuses a negative seed, mid-run and without naming the key
    (lambda d: {**d, "base_seed": -5}, "config 'base_seed' must be >= 0"),
    (lambda d: {**d, "spec": {"family": "unit_square", "d": 2.5}},
     "'d' must be an integer"),
    (lambda d: {**d, "spec": {"family": "spherical_cap", "alpha": "1.0"}},
     "'alpha' must be a finite number"),
    (lambda d: {**d, "k": {"kind": "constant", "k": "2"}},
     "'k' must be a finite number"),
    (lambda d: {**d, "k": {"kind": "constant", "k": 1.5}},
     "'k' must be an integer"),
    (lambda d: {**d, "region": {"kind": "interior_body", "delta": "0.2"}},
     "'delta' must be a finite number"),
    (lambda d: {**d, "k": {"kind": "beta_log", "beta": "1"}},
     "'beta' must be a finite number"),
    (lambda d: {**d, "k": {"kind": "power", "p": True}},
     "'p' must be a finite number"),
    (lambda d: {**d, "sizes": [1000.5]},
     "binomial size 1000.5 is not a whole number"),
    # json reads the NaN and Infinity literals; an infinite grid_h would
    # run and write rows with h=inf
    (lambda d: {**d, "grid_h": math.inf}, "grid_h must be a finite number"),
    (lambda d: {**d, "sizes": [64, math.inf]},
     "sizes must be a list of finite numbers"),
    (lambda d: {**d, "replications": math.nan},
     "'replications' must be a finite number"),
    (lambda d: {**d, "region": {"kind": "interior_body", "delta": math.nan}},
     "'delta' must be a finite number"),
    (lambda d: {**d, "spec": {"family": "spherical_cap", "alpha": math.inf}},
     "'alpha' must be a finite number"),
    (lambda d: {**d, "k": {"kind": "beta_log", "beta": math.nan}},
     "'beta' must be a finite number"),
    # an int beyond the float range must not escape as an OverflowError
    (lambda d: {**d, "base_seed": 10 ** 400},
     "'base_seed' must be a finite number"),
    # a misspelt enum value names its key and the known values; the
    # subcommand fixes the one mode a config may name
    (lambda d: {**d, "mode": "weak"},
     "config 'mode' is 'weak', but this subcommand runs 'weak_boundary'"),
    (lambda d: {**d, "metric": "geodesc"},
     "unknown metric 'geodesc'; known values: geodesic, euclidean"),
    (lambda d: {**d, "sampler": "poison"},
     "unknown sampler 'poison'; known values: binomial, poisson"),
    (lambda d: {**d, "spec": {"family": "unit_sqaure"}},
     "unknown family 'unit_sqaure'; known values: unit_square, unit_disk"),
], ids=["no_sizes", "k_int", "spec_str", "region_list", "top_list",
        "sizes_str", "sizes_entry_str", "body_no_delta", "ball_no_center",
        "cap_no_alpha", "grid_h_str", "reps_fraction", "reps_str",
        "reps_bool", "seed_fraction", "seed_negative", "square_d_fraction",
        "alpha_str",
        "k_str", "k_fraction", "delta_str", "beta_str", "p_bool",
        "binomial_size_fraction", "grid_h_inf", "size_inf", "reps_nan",
        "delta_nan", "alpha_inf", "beta_nan", "seed_beyond_float",
        "mode_misspelt", "metric_misspelt", "sampler_misspelt",
        "family_misspelt"])
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


@pytest.mark.parametrize("value,rc", [("slln_trace", 1), ("weak_interior", 1),
                                      ("weak_boundary", 0)])
def test_config_mode_must_match_subcommand(tmp_path, capsys, value, rc):
    cfg = _write_cfg(tmp_path, mode=value)
    out = tmp_path / "x"
    assert main(["weak", "--config", cfg, "--out", str(out)]) == rc
    if rc:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(value) in err
        assert "'weak_boundary'" in err and not os.path.exists(out)
    else:
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["mode"] == "weak_boundary"


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
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    text = readme.read_text()
    block = text.split("Example experiment config:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    doc = {**json.loads(block), "mode": "weak_boundary"}
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.to_json()["grid_h"] is None


def test_readme_cli_block_names_every_subcommand():
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    blocks = readme.read_text().split("```")[1::2]
    named = {line.split()[1] for block in blocks
             for line in block.splitlines() if line.startswith("covlab ")}
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)


def test_refusal_exit_code_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, region={"kind": "interior_body", "delta": 0.3},
                     k={"kind": "constant", "k": 2})
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["selftest"]) == 1


def test_sizes_and_reps_overrides(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "o")
    assert main(["weak", "--config", cfg, "--reps", "2", "--sizes", "64,128",
                 "--out", out]) == 0
    rows = (tmp_path / "o" / "rows.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 4  # header + 2 sizes x 2 reps


def test_sizes_override_reads_numbers_as_a_config_does(tmp_path, capsys):
    # "1e3" is the config number 1000.0: it runs n=1000 and writes the
    # bytes "1000" writes, the config echo included
    cfg = _write_cfg(tmp_path, replications=2)
    for token in ("1000", "1e3"):
        assert main(["weak", "--config", cfg, "--sizes", token,
                     "--out", str(tmp_path / token)]) == 0
    for name in ("rows.csv", "summary.json"):
        assert ((tmp_path / "1e3" / name).read_bytes()
                == (tmp_path / "1000" / name).read_bytes())
    rows = (tmp_path / "1e3" / "rows.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["1000", "1000"]
    summary = json.loads((tmp_path / "1e3" / "summary.json").read_text())
    assert summary["config"]["sizes"] == [1000]


def test_integer_options_read_numbers_as_a_config_does(tmp_path, capsys):
    # "--seed 5.0" is the config number 5.0, which a config's base_seed
    # takes: both write the bytes that 5 writes
    cfg = _write_cfg(tmp_path, base_seed=5.0, replications=2)
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    cfg = _write_cfg(tmp_path)
    assert main(["weak", "--config", cfg, "--seed", "5.0", "--reps", "2.0",
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("rows.csv", "summary.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    path = str(tmp_path / "pts.csv")
    save_cloud_csv(uniform_sample(geo.unit_disk(), 150, 3), path)
    capsys.readouterr()
    outs = []
    for k in ("2", "2.0", "2e0"):
        assert main(["cover", "--cloud", path, "--spec", "disk", "--k", k,
                     "--h", "0.05"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_sizes_override_takes_a_fractional_poisson_intensity(tmp_path,
                                                             capsys):
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path, sampler="poisson", replications=1)
    assert main(["weak", "--config", cfg, "--sizes", "100.5",
                 "--out", str(out)]) == 0
    rows = (out / "rows.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "100.5"
    # a binomial run still needs a whole number of points
    cfg = _write_cfg(tmp_path, replications=1)
    assert main(["weak", "--config", cfg, "--sizes", "100.5",
                 "--out", str(tmp_path / "b")]) == 1
    assert "binomial size 100.5 is not a whole number" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv,needle", [
    (["weak", "--sizes", "1e3,abc"], "--sizes: 'abc' is not a finite number"),
    (["cover", "--spec", "square:abc"],
     "spec 'square:abc': 'abc' is not an integer"),
    (["cover", "--spec", "cap:abc"],
     "spec 'cap:abc': 'abc' is not a finite number"),
    (["constants", "--d", "2..x"], "--d: 'x' is not an integer"),
    # a range that selects nothing would print empty tables
    (["constants", "--d", "5..2", "--k", "3..1"], "--d: '5..2' selects no"),
    (["constants", "--d", ""], "--d: '' selects no values"),
    (["weak", "--seed", "5.5"], "--seed: '5.5' is not an integer"),
    (["weak", "--seed", "-3"], "config 'base_seed' must be >= 0, got -3"),
    (["weak", "--reps", "two"], "--reps: 'two' is not an integer"),
    (["cover", "--spec", "disk", "--k", "1.5"], "--k: '1.5' is not an integer"),
], ids=["sizes", "square_dim", "cap_angle", "constants_range",
        "constants_reversed_range", "constants_empty_list", "seed_fraction",
        "seed_negative", "reps_word", "cover_k_fraction"])
def test_bad_number_token_exit_1_names_it(tmp_path, capsys, argv, needle):
    path = str(tmp_path / "pts.csv")
    save_cloud_csv(uniform_sample(geo.unit_disk(), 150, 5), path)
    out = tmp_path / "x"
    extra = {"weak": ["--config", _write_cfg(tmp_path), "--out", str(out)],
             "cover": ["--cloud", path, "--h", "0.1"],
             "constants": ["--out", str(out)]}
    assert main([*argv, *extra[argv[0]]]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and needle in err
    assert not out.exists()
