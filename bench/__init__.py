"""Host-time + simulated-cost benchmark (see bench/README.md, BENCHMARK.json)."""
