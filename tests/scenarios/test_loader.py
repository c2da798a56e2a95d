"""Loader validation: every bad document fails with a message that
names the offending spec path and what would have been accepted."""

import copy

import pytest

from repro.errors import ScenarioError
from repro.scenarios import build_scenario, load_scenario


def base_doc(**overrides):
    doc = {
        "name": "probe",
        "workload": {
            "duration": 2.0,
            "deadline": 1.0,
            "tenants": [{"name": "t", "rate": 1.0, "files": ["dem_a"]}],
        },
    }
    doc.update(copy.deepcopy(overrides))
    return doc


def rejects(doc, *fragments):
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    message = str(err.value)
    for fragment in fragments:
        assert fragment in message, (fragment, message)


class TestStructure:
    def test_unknown_top_level_key(self):
        rejects(base_doc(bogus=1), "unknown key 'bogus'", "name, description")

    def test_missing_name(self):
        doc = base_doc()
        del doc["name"]
        rejects(doc, "name", "missing")

    def test_missing_workload(self):
        rejects({"name": "x"}, "workload", "missing")

    def test_non_object_section(self):
        rejects(base_doc(topology=3), "topology", "must be an object")

    def test_wrong_value_type(self):
        doc = base_doc()
        doc["workload"]["duration"] = "long"
        rejects(doc, "workload.duration", "must be a number", "'long'")

    def test_error_carries_the_scenario_name(self):
        rejects(base_doc(bogus=1), "probe:")


class TestTopology:
    def test_unknown_scheme(self):
        rejects(base_doc(topology={"scheme": "RAID"}), "topology.scheme", "'RAID'")

    def test_unknown_operator(self):
        rejects(
            base_doc(topology={"operator": "sharpen"}),
            "topology.operator",
            "unknown kernel 'sharpen'",
            "registered:",
        )

    def test_bad_raster(self):
        rejects(base_doc(topology={"raster": [64]}), "topology.raster", "[rows, cols]")

    def test_partition_servers_needs_partition_ingest(self):
        rejects(
            base_doc(topology={"partition_servers": 2}),
            "topology.partition_servers",
            "only meaningful with ingest 'partition'",
        )

    def test_partition_ingest_needs_partition_servers(self):
        rejects(
            base_doc(topology={"ingest": "partition"}),
            "topology.partition_servers",
            "required",
        )

    def test_partition_larger_than_storage(self):
        rejects(
            base_doc(topology={"ingest": "partition", "partition_servers": 9}),
            "topology.partition_servers",
            "exceeds the 4 storage servers",
        )

    def test_duplicate_file_names(self):
        rejects(
            base_doc(topology={"files": ["dem_a", "dem_a"]}),
            "topology.files",
            "duplicate file name 'dem_a'",
        )


class TestTenants:
    def test_unknown_file_names_the_declared_files(self):
        doc = base_doc()
        doc["workload"]["tenants"][0]["files"] = ["nope"]
        rejects(doc, "tenants[0]", "unknown file 'nope'", "topology declares")

    def test_unknown_kernel(self):
        doc = base_doc()
        doc["workload"]["tenants"][0]["kernels"] = ["sharpen"]
        rejects(doc, "kernels", "unknown kernel 'sharpen'")

    def test_unknown_tenant_key(self):
        doc = base_doc()
        doc["workload"]["tenants"][0]["burst"] = 2
        rejects(doc, "tenants[0]", "unknown key 'burst'")

    def test_duplicate_tenant_names(self):
        doc = base_doc()
        doc["workload"]["tenants"].append(
            {"name": "t", "rate": 1.0, "files": ["dem_a"]}
        )
        rejects(doc, "duplicate tenant name 't'")

    def test_closed_tenant_requires_population(self):
        doc = base_doc()
        doc["workload"]["tenants"][0] = {
            "name": "t", "mode": "closed", "think_time": 0.1, "files": ["dem_a"],
        }
        rejects(doc, "population", "missing")

    def test_closed_tenant_rejects_rate(self):
        doc = base_doc()
        doc["workload"]["tenants"][0] = {
            "name": "t", "mode": "closed", "rate": 2.0, "population": 1,
            "think_time": 0.1, "files": ["dem_a"],
        }
        rejects(doc, "rate", "closed")

    def test_open_tenant_rejects_population_knobs(self):
        doc = base_doc()
        doc["workload"]["tenants"][0]["think_time"] = 0.5
        rejects(doc, "think_time", "only meaningful for mode 'closed'")

    def test_bad_affinity_reported_at_the_tenant(self):
        doc = base_doc()
        doc["workload"]["tenants"][0] = {
            "name": "t", "mode": "closed", "population": 1,
            "think_time": 0.1, "affinity": 1.5, "files": ["dem_a"],
        }
        rejects(doc, "tenants[0]", "affinity")


class TestWorkloadShape:
    def test_ramp_phase_past_duration(self):
        doc = base_doc()
        doc["workload"]["ramp"] = [[0.0, 1.0], [5.0, 2.0]]
        rejects(doc, "workload.ramp[1]", "outside [0, duration 2)")

    def test_ramp_must_be_sorted(self):
        doc = base_doc()
        doc["workload"]["ramp"] = [[1.0, 1.0], [0.5, 2.0]]
        rejects(doc, "workload.ramp", "ascending")

    def test_ramp_multiplier_positive(self):
        doc = base_doc()
        doc["workload"]["ramp"] = [[0.0, -1.0]]
        rejects(doc, "workload.ramp[0]", "multiplier must be positive")


class TestChaos:
    def test_malformed_spec_surfaces_the_grammar_error(self):
        rejects(
            base_doc(chaos={"spec": "wobble:s1@0.5"}),
            "chaos.spec",
            "unknown fault kind 'wobble'",
        )

    def test_unknown_target_lists_the_cluster_nodes(self):
        rejects(
            base_doc(chaos={"spec": "crash:s9@0.5"}),
            "chaos.spec",
            "unknown node 's9'",
            "c0, c1, c2, c3, s0, s1, s2, s3",
        )

    def test_event_after_duration(self):
        rejects(
            base_doc(chaos={"spec": "crash:s1@5.0"}),
            "chaos.spec",
            "fires at 5s, past the workload duration 2s",
        )

    def test_unknown_recovery_key(self):
        rejects(
            base_doc(chaos={"spec": "crash:s1@0.5", "recovery": {"retries": 3}}),
            "chaos.recovery",
            "unknown key 'retries'",
        )


class TestAutoscale:
    def test_clamp_beyond_storage_partition(self):
        rejects(
            base_doc(autoscale={"min_servers": 2, "max_servers": 9}),
            "autoscale.max_servers",
            "exceeds the 4 storage servers",
        )

    def test_policy_invariants_surface_at_the_section(self):
        rejects(
            base_doc(autoscale={"min_servers": 4, "max_servers": 2}),
            "probe: autoscale:",
        )


class TestChecks:
    def test_unknown_check_lists_the_catalog(self):
        rejects(
            base_doc(checks=[{"check": "latency_good"}]),
            "checks[0].check",
            "unknown check 'latency_good'",
            "availability_min",
        )

    def test_missing_value(self):
        rejects(
            base_doc(checks=[{"check": "p99_max"}]),
            "checks[0]",
            "needs a numeric 'value'",
        )

    def test_value_on_valueless_check(self):
        rejects(
            base_doc(checks=[{"check": "conservation", "value": 1}]),
            "checks[0]",
            "takes no 'value'",
        )

    def test_unknown_tenant_reference(self):
        rejects(
            base_doc(checks=[{"check": "p99_max", "value": 1, "tenant": "ghost"}]),
            "checks[0].tenant",
            "unknown tenant 'ghost'",
            "declared: t",
        )

    def test_chaos_check_requires_chaos_section(self):
        rejects(
            base_doc(checks=[{"check": "failover_reads_min", "value": 1}]),
            "requires a chaos section",
        )

    def test_autoscale_check_requires_autoscale_section(self):
        rejects(
            base_doc(checks=[{"check": "scale_ups_min", "value": 1}]),
            "requires an autoscale section",
        )

    def test_crc_identity_requires_something_to_survive(self):
        rejects(
            base_doc(checks=[{"check": "crc_identity"}]),
            "requires a chaos or autoscale section",
        )

    def test_cache_check_requires_das(self):
        doc = base_doc(
            topology={"scheme": "TS"},
            checks=[{"check": "cache_hit_ratio_min", "value": 0.5}],
        )
        rejects(doc, "requires scheme 'DAS'")


class TestSources:
    def test_unknown_library_name(self):
        with pytest.raises(ScenarioError, match="unknown library scenario"):
            load_scenario("totally-made-up")

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="does not exist"):
            load_scenario("/tmp/no/such/spec.json")

    def test_invalid_json_reports_the_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",}\n')
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(bad)

    def test_non_object_document(self, tmp_path):
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]\n")
        with pytest.raises(ScenarioError, match="must be a JSON object"):
            load_scenario(arr)


class TestClusterAgreement:
    """The node names and storage counts the loader checks a document
    against are those of the cluster ``build_scenario`` then builds."""

    @pytest.mark.parametrize("nodes", range(2, 10))
    def test_accepted_bounds_match_the_built_cluster(self, nodes):
        def doc(topology=(), **sections):
            return base_doc(topology={"nodes": nodes, **dict(topology)}, **sections)

        pfs, _ = build_scenario(load_scenario(doc()))
        compute = pfs.cluster.compute_names
        storage = pfs.cluster.storage_names
        assert len(compute) + len(storage) == nodes

        for name in list(compute) + list(storage):
            load_scenario(doc(chaos={"spec": f"crash:{name}@0.5"}))
        for ghost in (f"c{len(compute)}", f"s{len(storage)}"):
            rejects(doc(chaos={"spec": f"crash:{ghost}@0.5"}), "unknown node")

        partition = {"ingest": "partition", "partition_servers": len(storage)}
        load_scenario(doc(partition))
        partition["partition_servers"] += 1
        rejects(doc(partition), "topology.partition_servers", "exceeds")

        clamp = {"min_servers": 1, "max_servers": len(storage)}
        load_scenario(doc(autoscale=clamp))
        clamp["max_servers"] += 1
        rejects(doc(autoscale=clamp), "autoscale.max_servers", "exceeds")
