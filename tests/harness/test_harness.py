"""Tests for the experiment harness (fast, tiny scales)."""

import weakref
from itertools import product

import numpy as np
import pytest

from repro.errors import HarnessError, UnknownExperimentError
from repro.harness import (
    ExperimentPlatform,
    build_platform,
    ingest_for_scheme,
    make_input,
    run_cell,
    run_experiment,
)
from repro.harness import experiments
from repro.harness.experiments import table1
from repro.harness.platform import reference_output
from repro.kernels import default_registry
from repro.harness.runner import build_parser, main
from repro.pfs import ReplicatedGroupedLayout, RoundRobinLayout
from repro.units import KiB
from repro.workloads import DatasetSpec, dataset_for_label

#: 64 KiB stand in for one paper GB -> sub-second cells.
TINY = 64 * KiB


class TestPlatform:
    def test_half_storage_split(self):
        cluster, pfs = build_platform(24)
        assert len(cluster.storage_nodes) == 12
        assert len(cluster.compute_nodes) == 12

    def test_odd_counts_round_storage(self):
        cluster, _ = build_platform(5)
        assert len(cluster.storage_nodes) == 2
        assert len(cluster.compute_nodes) == 3

    def test_no_compute_partition_rejected(self):
        with pytest.raises(HarnessError):
            build_platform(1)

    def test_custom_platform_spec_applies(self):
        platform = ExperimentPlatform(strip_size=16 * KiB)
        _, pfs = build_platform(4, platform)
        assert pfs.strip_size == 16 * KiB


class TestIngestPolicy:
    def test_das_files_land_in_replicated_layout(self):
        _, pfs = build_platform(8)
        spec = dataset_for_label(1, scale=TINY)
        ingest_for_scheme(pfs, "DAS", "f", spec.generate(), "flow-routing")
        assert isinstance(pfs.metadata.lookup("f").layout, ReplicatedGroupedLayout)

    def test_other_schemes_get_round_robin(self):
        for scheme in ("TS", "NAS"):
            _, pfs = build_platform(8)
            spec = dataset_for_label(1, scale=TINY)
            ingest_for_scheme(pfs, scheme, "f", spec.generate(), "flow-routing")
            layout = pfs.metadata.lookup("f").layout
            assert type(layout) is RoundRobinLayout

    def test_flow_accumulation_input_is_direction_raster(self):
        spec = dataset_for_label(1, scale=TINY)
        dirs = make_input(spec, "flow-accumulation")
        assert set(np.unique(dirs)).issubset(set(float(x) for x in range(9)))
        dem = make_input(spec, "flow-routing")
        assert dem.shape == dirs.shape

    def test_inputs_and_references_are_derived_once(self):
        spec = dataset_for_label(1, scale=TINY, seed=3)
        dirs = make_input(spec, "flow-accumulation")
        assert make_input(spec, "flow-accumulation") is dirs
        # The direction raster *is* flow-routing's reference output.
        assert reference_output(spec, "flow-routing") is dirs
        assert make_input(spec, "gaussian") is spec.generate()
        ref = reference_output(spec, "flow-accumulation")
        assert not ref.flags.writeable and not dirs.flags.writeable
        kernel = default_registry.get("flow-accumulation")
        assert np.array_equal(ref, kernel.reference(dirs))

    def test_one_dataset_is_held_at_a_time(self):
        first = dataset_for_label(1, scale=TINY, seed=4)
        dirs = weakref.ref(make_input(first, "flow-accumulation"))
        raster = weakref.ref(first.generate())
        assert dirs() is not None and raster() is not None
        # Asking for another size drops the first one's rasters.
        make_input(dataset_for_label(2, scale=TINY, seed=4), "gaussian")
        assert dirs() is None and raster() is None


class TestRunCell:
    def test_cell_produces_verified_record(self):
        spec = dataset_for_label(1, scale=TINY)
        rec = run_cell("DAS", "gaussian", spec, n_nodes=4)
        assert rec.verified
        assert rec.sim_seconds > 0
        assert rec.row["scheme"] == "DAS"

    def test_unknown_scheme_rejected(self):
        spec = dataset_for_label(1, scale=TINY)
        with pytest.raises(HarnessError):
            run_cell("XYZ", "gaussian", spec, n_nodes=4)


class TestExperiments:
    def test_table1_report(self):
        report = table1()
        assert report.all_checks_pass
        assert len(report.rows) == 3
        text = report.to_text()
        assert "flow-routing" in text
        assert "[PASS]" in text

    def test_grid_walks_size_by_size_and_keys_scheme_first(self, monkeypatch):
        walked = []

        def fake_cell(scheme, kernel, size, n, scale=None, verify=True):
            walked.append((scheme, kernel, size, n))
            return (scheme, kernel, size, n)

        monkeypatch.setattr(experiments, "run_label_cell", fake_cell)
        cells = experiments._grid(("NAS", "TS"), ("a", "b"), (24, 36), (8,), None, True)
        assert [key[2] for key in walked] == [24] * 4 + [36] * 4
        keys = list(product(("NAS", "TS"), ("a", "b"), (24, 36), (8,)))
        assert list(cells) == keys
        assert all(cells[key] == key for key in keys)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(UnknownExperimentError):
            run_experiment("fig99")

    def test_fig11_tiny_scale_holds_shape(self):
        # At 24 nodes, 64 KiB per GB fails all nine DAS checks and
        # 128 KiB the three "DAS >=30% over TS" ones; 256 KiB is the
        # smallest power-of-two scale at which every check holds.
        report = run_experiment("fig11", scale=256 * KiB)
        assert report.experiment == "fig11"
        assert len(report.rows) == 9  # 3 schemes x 3 kernels
        assert report.all_checks_pass, report.to_text()


class TestRunnerCLI:
    def test_parser_accepts_experiments(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale_kb == 1024

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_main_runs_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Description of data analysis kernels" in out
