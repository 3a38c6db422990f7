"""Scan plans, the point runner, determinism, and trend summaries."""

import csv
import json
import math
import multiprocessing
import os

import pytest
from numpy.random import SeedSequence

from torus_hartree import scan
from torus_hartree import (
    SCAN_COLUMNS,
    IntegratorConfig,
    ScanPlan,
    ScanRecord,
    TorusLattice,
    Trajectory,
    TrajectoryContext,
    evolve,
    iterated_limit_summary,
    load_plan,
    make_potential,
    make_record,
    make_state,
    run_report,
    run_scan,
)
from torus_hartree.scan import _trajectory_filename, write_scan_csv

POTENTIAL = {"family": "gaussian"}


def small_plan(**overrides):
    base = dict(potential=POTENTIAL, rho_values=[1.0, 4.0], L_values=[2.0],
                family="perturbed", family_params={"eps0": 0.2, "s": 6.0},
                t_final=0.0, dt=1e-3)
    base.update(overrides)
    return ScanPlan(**base)


class TestPlan:
    def test_cutoff_rule(self):
        assert small_plan().cutoff(4.0) == 4
        assert small_plan(kappa=0.6).cutoff(7.0) == 5

    def test_ladders_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            small_plan(rho_values=[4.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            small_plan(L_values=[2.0, 2.0])
        with pytest.raises(ValueError, match="non-empty"):
            small_plan(L_values=[])

    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            small_plan(kappa=0.0)
        with pytest.raises(ValueError):
            small_plan(dt=0.0)
        with pytest.raises(ValueError):
            small_plan(t_final=-1.0)
        for bad in (math.nan, math.inf):
            for name in ("kappa", "t_final", "dt"):
                with pytest.raises(ValueError, match="finite"):
                    small_plan(**{name: bad})
            for name in ("rho_values", "L_values"):
                with pytest.raises(ValueError, match="finite"):
                    small_plan(**{name: [1.0, bad]})
        with pytest.raises(ValueError, match="finite"):
            small_plan(rho_values=[-1.0, 1.0])
        for bad in (math.nan, math.inf, 1.5):
            for name in ("stride", "master_seed"):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    small_plan(**{name: bad})
        assert small_plan(stride=2.0, master_seed=3.0).stride == 2
        with pytest.raises(ValueError, match="master_seed"):
            small_plan(master_seed=-1)
        for bad in (True, "1e-3", None, [1.0]):
            for name in ("kappa", "t_final", "dt"):
                with pytest.raises(ValueError, match=f"{name} must be"):
                    small_plan(**{name: bad})
            for name in ("rho_values", "L_values"):
                with pytest.raises(ValueError, match=name):
                    small_plan(**{name: [1.0, bad]})
        for name in ("stride", "master_seed"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                small_plan(**{name: 10**400})
        for name in ("kappa", "t_final", "dt"):
            with pytest.raises(ValueError, match=f"{name} must be"):
                small_plan(**{name: 10**400})
        for bad in ("no", 0, 1, None):
            with pytest.raises(ValueError, match="write_trajectories must be true or false"):
                small_plan(write_trajectories=bad)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            small_plan(method="bogus")

    def test_summary_columns_validated_on_load(self):
        for columns in (5, "beta_gap", ["nope"], ["status"], ["beta_gap", 1]):
            with pytest.raises(ValueError, match="summary_columns must be"):
                small_plan(summary_columns=columns)
        assert small_plan(summary_columns=["mass", "M"]).summary_columns == ["mass", "M"]

    def test_seed_belongs_to_master(self):
        with pytest.raises(ValueError, match="master_seed"):
            small_plan(family_params={"eps0": 0.1, "s": 6.0, "seed": 3})

    def test_eps_rule_default_is_inv_sqrt_rho(self):
        assert small_plan().resolve_params(4.0)["eps"] == pytest.approx(0.1)

    def test_eps_rule_fixed(self):
        plan = small_plan(
            family_params={"eps0": 0.2, "eps_rule": "fixed", "s": 6.0})
        assert plan.resolve_params(100.0)["eps"] == pytest.approx(0.2)

    def test_eps_rule_validation(self):
        with pytest.raises(ValueError, match="unknown eps_rule"):
            small_plan(family_params={"eps0": 0.1, "eps_rule": "sqrt"}
                       ).resolve_params(1.0)
        with pytest.raises(ValueError, match="requires eps0"):
            small_plan(family_params={"eps_rule": "fixed"}).resolve_params(1.0)

    def test_k0_coerced_to_int_tuple(self):
        plan = small_plan(family_params={"eps0": 0.1, "s": 5.0,
                                         "k0": [1.0, 0, 0]})
        assert plan.resolve_params(1.0)["k0"] == (1, 0, 0)


class TestLoadPlan:
    def write(self, tmp_path, doc):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return path

    def base_doc(self):
        return dict(potential=POTENTIAL, rho_values=[1.0], L_values=[2.0],
                    family="plane_wave", family_params={}, t_final=0.0,
                    dt=1e-3)

    def test_round_trip(self, tmp_path):
        plan = load_plan(self.write(tmp_path, self.base_doc()))
        assert plan.rho_values == [1.0]
        assert plan.method == "split_strang"

    def test_unknown_key(self, tmp_path):
        doc = self.base_doc()
        doc["worker_count"] = 4
        with pytest.raises(ValueError, match="worker_count"):
            load_plan(self.write(tmp_path, doc))

    def test_missing_key(self, tmp_path):
        doc = self.base_doc()
        del doc["dt"]
        with pytest.raises(ValueError, match="dt"):
            load_plan(self.write(tmp_path, doc))

    def test_unknown_family(self, tmp_path):
        doc = self.base_doc()
        for family in ("perturbd", ["perturbed"]):
            doc["family"] = family
            with pytest.raises(ValueError, match="unknown state family"):
                load_plan(self.write(tmp_path, doc))

    def test_wrongly_typed_values(self, tmp_path):
        for key, value in (("rho_values", 5), ("L_values", "2.0"),
                           ("rho_values", [1.0, None]), ("family_params", [])):
            doc = self.base_doc()
            doc[key] = value
            with pytest.raises(ValueError, match=key):
                load_plan(self.write(tmp_path, doc))

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            load_plan(self.write(tmp_path, [1, 2]))


def synthetic(rho, L, value, status="ok"):
    return ScanRecord(rho=rho, L=L, M=int(L), seed="s", status=status,
                      beta_gap=value)


class TestSummary:
    def test_largest_L_wins_and_trend_decreasing(self):
        records = [synthetic(1.0, 2.0, 0.9), synthetic(1.0, 4.0, 0.5),
                   synthetic(2.0, 2.0, 0.8), synthetic(2.0, 4.0, 0.3),
                   synthetic(4.0, 2.0, 0.7), synthetic(4.0, 4.0, 0.1)]
        out = iterated_limit_summary(records, columns=("beta_gap",))
        col = out["columns"]["beta_gap"]
        assert [p["value"] for p in col["proxies"]] == [0.5, 0.3, 0.1]
        assert [p["L"] for p in col["proxies"]] == [4.0, 4.0, 4.0]
        assert col["trend"] == "decreasing"

    @pytest.mark.parametrize("values,trend", [
        ([0.1, 0.2, 0.4], "increasing"),
        ([0.5, 0.5 + 1e-12, 0.5], "flat"),
        ([0.1, 0.4, 0.2], "mixed"),
        ([0.1, math.nan, 0.2], "undefined"),
    ])
    def test_trend_classification(self, values, trend):
        records = [synthetic(float(i + 1), 2.0, v)
                   for i, v in enumerate(values)]
        out = iterated_limit_summary(records, columns=("beta_gap",))
        assert out["columns"]["beta_gap"]["trend"] == trend

    def test_flat_reports_value(self):
        records = [synthetic(1.0, 2.0, 0.5), synthetic(2.0, 2.0, 0.5)]
        out = iterated_limit_summary(records, columns=("beta_gap",))
        assert out["columns"]["beta_gap"]["value"] == 0.5

    def test_single_rho_is_undefined(self):
        out = iterated_limit_summary([synthetic(1.0, 2.0, 0.5)],
                                     columns=("beta_gap",))
        assert out["columns"]["beta_gap"]["trend"] == "undefined"

    def test_failed_rows_are_excluded(self):
        records = [synthetic(1.0, 2.0, 0.5), synthetic(2.0, 2.0, 0.4),
                   synthetic(2.0, 4.0, math.nan, status="failed: boom")]
        out = iterated_limit_summary(records, columns=("beta_gap",))
        col = out["columns"]["beta_gap"]
        # the failed L=4 row must not displace the ok L=2 proxy
        assert [p["L"] for p in col["proxies"]] == [2.0, 2.0]
        assert out["points_failed"] == 1
        assert out["points_total"] == 3


class TestRunScan:
    def test_static_scan_rows_and_files(self, tmp_path):
        plan = small_plan(rho_values=[1.0, 4.0], L_values=[2.0, 4.0])
        out = tmp_path / "scan"
        records = run_scan(plan, out_dir=out)
        assert [(r.rho, r.L) for r in records] == [
            (1.0, 2.0), (1.0, 4.0), (4.0, 2.0), (4.0, 4.0)]
        assert all(r.status == "ok" for r in records)
        assert records[1].M == 4
        assert records[2].seed == "0:1:0"
        assert records[3].n_particles == pytest.approx(4.0 * 64.0)
        assert records[0].final_t == 0.0
        assert (out / "table.csv").exists()
        assert (out / "summary.json").exists()
        for rho, L in [(1, 2), (1, 4), (4, 2), (4, 4)]:
            assert (out / _trajectory_filename(rho, L)).exists()
        with open(out / "table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SCAN_COLUMNS
        assert len(rows) == 5

    def test_columns_follow_readme(self):
        assert SCAN_COLUMNS == [
            "rho", "L", "M", "seed", "n_particles", "status", "final_t",
            "mass", "energy", "energy_per_particle", "energy_gap", "S", "T",
            "k_star", "condensate_fraction", "l1_dev", "l2_dev",
            "tail_half_M", "beta_gap", "kinetic_tail", "u_mass_sq",
            "max_mass_dev", "max_energy_drift", "min_s_margin",
            "min_t_margin", "runtime_s"]

    def test_status_with_comma_is_quoted(self, tmp_path):
        rec = ScanRecord(rho=1.0, L=2.0, M=2, seed="0:0:0",
                         status="failed: ValueError: mode (3, 0, 0) outside")
        path = tmp_path / "table.csv"
        write_scan_csv([rec], path)
        row = path.read_text().splitlines()[1]
        assert row.startswith('1,2,2,0:0:0,nan,'
                              '"failed: ValueError: mode (3, 0, 0) outside",'
                              'nan,')
        with open(path, newline="") as fh:
            assert list(csv.DictReader(fh))[0]["status"] == rec.status

    def test_eps_shrinks_along_rho_ladder(self):
        records = run_scan(small_plan())
        # eps = eps0 / sqrt(rho): the rho=4 point sits closer to the
        # pure condensate than the rho=1 point
        assert records[1].l2_dev < records[0].l2_dev
        assert records[1].condensate_fraction > records[0].condensate_fraction

    def test_failure_is_isolated(self, tmp_path):
        plan = small_plan(
            rho_values=[1.0], L_values=[2.0, 4.0],
            family_params={"eps0": 0.1, "s": 6.0, "k0": [3, 0, 0]})
        out = tmp_path / "scan"
        records = run_scan(plan, out_dir=out)
        assert records[0].status.startswith("failed: ")
        assert records[1].status == "ok"
        assert math.isnan(records[0].mass)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["points_failed"] == 1
        # no trajectory file for the failed point
        assert not (out / _trajectory_filename(1.0, 2.0)).exists()
        assert (out / _trajectory_filename(1.0, 4.0)).exists()

    def test_summary_trends_for_quasi_condensate(self, tmp_path):
        # rho rungs far enough apart that the eps0/sqrt(rho) shrinkage
        # dominates the seed-to-seed variation of the perturbation
        plan = small_plan(rho_values=[1.0, 16.0, 256.0])
        out = tmp_path / "scan"
        run_scan(plan, out_dir=out)
        summary = json.loads((out / "summary.json").read_text())
        cols = summary["columns"]
        assert cols["beta_gap"]["trend"] == "decreasing"
        assert cols["condensate_fraction"]["trend"] == "increasing"

    @pytest.mark.parametrize("t_final", [0.0, 5e-3])
    def test_run_level_columns_are_the_run_report(self, t_final):
        plan = small_plan(rho_values=[4.0], t_final=t_final)
        (row,) = run_scan(plan, workers=1)
        assert row.status == "ok"
        # the point's trajectory, built independently of scan._run_point
        model = make_potential(POTENTIAL)
        state = make_state(plan.family, TorusLattice(2.0, 2), 4.0,
                           seed=SeedSequence([0, 0, 0]), **plan.resolve_params(4.0))
        if t_final > 0.0:
            traj = evolve(state, model, t_final,
                          IntegratorConfig(method=plan.method, dt=plan.dt), keep_states=False)
        else:
            ctx = TrajectoryContext.from_state(state, model)
            traj = Trajectory(records=[make_record(state, model, ctx)],
                              final_state=state, context=ctx)
        report = run_report(traj)
        # the report run_config returns with the point's trajectory is that same report
        _, returned = scan.run_config(scan.point_config(plan, 0, 0), model)
        assert returned == report
        assert row.status == returned.status == "ok"
        for name in ("max_mass_dev", "max_energy_drift", "min_s_margin", "min_t_margin"):
            assert getattr(row, name) == getattr(returned, name), name
            assert math.isfinite(getattr(row, name)), name

    def test_write_trajectories_toggle(self, tmp_path):
        plan = small_plan(write_trajectories=False)
        out = tmp_path / "scan"
        run_scan(plan, out_dir=out)
        assert (out / "table.csv").exists()
        assert not (out / _trajectory_filename(1.0, 2.0)).exists()


def strip_runtime(table_text):
    rows = [line.rsplit(",", 1)[0] for line in table_text.splitlines()]
    return "\n".join(rows)


def assert_same_outputs(a, b):
    """Every output file byte-identical, table.csv up to runtime_s."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "table.csv":
            assert strip_runtime((a / name).read_text()) == \
                strip_runtime((b / name).read_text())
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestDeterminism:
    def dynamic_plan(self):
        return small_plan(rho_values=[1.0, 2.0], t_final=2e-3, dt=1e-3,
                          stride=1)

    def run_to(self, tmp_path, name, workers):
        out = tmp_path / name
        run_scan(self.dynamic_plan(), out_dir=out, workers=workers)
        return out

    def test_workers_must_be_positive(self, tmp_path):
        for workers in (0, -3, 1.5, None):
            with pytest.raises(ValueError, match="workers must be"):
                run_scan(self.dynamic_plan(), out_dir=tmp_path / "scan", workers=workers)
        assert not (tmp_path / "scan").exists()

    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = self.run_to(tmp_path, "serial", 1)
        threaded = self.run_to(tmp_path, "threaded", 3)
        for rho in (1.0, 2.0):
            name = _trajectory_filename(rho, 2.0)
            assert (serial / name).read_bytes() == \
                (threaded / name).read_bytes()
        assert strip_runtime((serial / "table.csv").read_text()) == \
            strip_runtime((threaded / "table.csv").read_text())
        assert SCAN_COLUMNS[-1] == "runtime_s"  # the stripped column


class TestProcessPool:
    """The forked worker processes, seen through the points each one runs."""

    @pytest.fixture
    def point_log(self, tmp_path, monkeypatch):
        # each _run_point call, in whichever process, appends "pid i_rho i_L"
        log = tmp_path / "points.log"
        run_point = scan._run_point

        def logged(plan, model, i_rho, i_L, out_dir):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {i_rho} {i_L}\n")
            return run_point(plan, model, i_rho, i_L, out_dir)

        monkeypatch.setattr(scan, "_run_point", logged)  # forked workers inherit it
        return log

    def shares(self, log, plan, workers):
        """The caller's share of the multi-worker pass, and each child's, in their order.

        The caller runs the whole workers=1 pass first, then share 0 of the
        multi-worker pass; min(workers, points) - 1 children run the rest.
        """
        shares = {}
        for line in log.read_text(encoding="ascii").splitlines():
            pid, i_rho, i_L = map(int, line.split())
            shares.setdefault(pid, []).append((i_rho, i_L))
        points = [(i, j) for i in range(len(plan.rho_values)) for j in range(len(plan.L_values))]
        caller = shares.pop(os.getpid())
        assert caller[:len(points)] == points
        assert len(shares) == min(workers, len(points)) - 1
        return caller[len(points):], sorted(shares.values())

    def run_both(self, tmp_path, plan, workers):
        outs = {}
        for w in (1, workers):
            outs[w] = tmp_path / f"w{w}"
            records = run_scan(plan, out_dir=outs[w], workers=w)
            assert [(r.rho, r.L) for r in records] == [
                (rho, L) for rho in plan.rho_values for L in plan.L_values]
            assert multiprocessing.active_children() == []  # no worker leaked
        assert_same_outputs(outs[1], outs[workers])
        return records

    def test_largest_M_first_rows_in_plan_order(self, tmp_path, point_log):
        plan = small_plan(rho_values=[1.0, 2.0], L_values=[2.0, 3.0, 4.0],
                          t_final=2e-3, dt=1e-3)
        self.run_both(tmp_path, plan, 2)
        # largest M first, (0, 2), (1, 2), (0, 1), (1, 1), (0, 0), (1, 0), dealt round robin;
        # the caller runs share 0
        assert self.shares(point_log, plan, 2) == ([(0, 2), (0, 1), (0, 0)],
                                                   [[(1, 2), (1, 1), (1, 0)]])

    def test_more_workers_than_points(self, tmp_path, point_log):
        plan = small_plan(rho_values=[1.0, 2.0], t_final=2e-3, dt=1e-3)
        self.run_both(tmp_path, plan, 5)
        assert self.shares(point_log, plan, 5) == ([(0, 0)], [[(1, 0)]])

    def test_one_point_plan_forks_nothing(self, tmp_path, point_log):
        plan = small_plan(rho_values=[1.0], t_final=2e-3, dt=1e-3)
        self.run_both(tmp_path, plan, 4)
        assert self.shares(point_log, plan, 4) == ([(0, 0)], [])

    def test_interrupt_in_the_callers_share_reaps_every_child(self, tmp_path, monkeypatch):
        run_point = scan._run_point
        caller = os.getpid()

        def interrupted(plan, model, i_rho, i_L, out_dir):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return run_point(plan, model, i_rho, i_L, out_dir)

        monkeypatch.setattr(scan, "_run_point", interrupted)  # forked workers inherit it
        plan = small_plan(rho_values=[1.0, 2.0, 4.0], L_values=[2.0, 3.0],
                          t_final=2e-3, dt=1e-3)
        out = tmp_path / "scan"
        with pytest.raises(KeyboardInterrupt):
            run_scan(plan, out_dir=out, workers=3)
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):  # no zombie left to wait for
            os.waitpid(-1, os.WNOHANG)
        assert not (out / "table.csv").exists()
        assert not (out / "summary.json").exists()

    def test_point_failing_in_a_worker(self, tmp_path):
        # k0 = (3, 0, 0) lies outside the M = 2 lattice but inside M = 4
        plan = small_plan(rho_values=[1.0], L_values=[2.0, 4.0],
                          family_params={"eps0": 0.1, "s": 6.0, "k0": [3, 0, 0]})
        records = self.run_both(tmp_path, plan, 2)
        assert records[0].status.startswith("failed: ValueError: ")
        assert records[1].status == "ok"
