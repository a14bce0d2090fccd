"""Figures 5.18-5.19 — cost of the two reconfiguration protocols.

Paper: the partial restart drains the whole database and causes a visible
throughput dip, while the online update only pauses the transaction types
whose subtree changes and barely disturbs the rest of the workload.
"""

from common import print_rows, tpcc_workload
from repro.autoconf.reconfigure import ReconfigurationDriver
from repro.harness import configs
from repro.harness.runner import BenchmarkRunner

CLIENTS = 50


def run_protocol(protocol):
    runner = BenchmarkRunner(tpcc_workload(), configs.WORKLOAD_CONFIGURATIONS["tpcc"]["tebaldi-2layer"]())
    runner.add_clients(CLIENTS)
    runner.env.run(until=0.6)
    runner.engine.stats.reset()
    driver = ReconfigurationDriver(runner.engine)
    outcomes = []

    def scenario():
        yield runner.env.timeout(0.3)
        outcome = yield from driver.switch(configs.tpcc_tebaldi_3layer(), protocol=protocol)
        outcomes.append(outcome)

    runner.env.process(scenario())
    runner.env.run(until=runner.env.now + 1.0)
    result = runner.result(CLIENTS, 1.0)
    runner.stop()
    return outcomes[0], result


def run_experiment():
    rows = []
    data = {}
    for protocol in ("partial-restart", "online"):
        outcome, result = run_protocol(protocol)
        data[protocol] = (outcome, result)
        rows.append(
            {
                "protocol": protocol,
                "switch duration (ms)": f"{outcome.duration * 1000:.1f}",
                "throughput during run (txn/s)": f"{result.throughput:.0f}",
            }
        )
    print_rows(
        "Figure 5.19: reconfiguration protocols",
        rows,
        ["protocol", "switch duration (ms)", "throughput during run (txn/s)"],
    )
    return data


def test_fig_5_19(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for protocol, (outcome, result) in data.items():
        # Both protocols finish and the system keeps committing afterwards.
        assert outcome.duration >= 0.0
        assert result.throughput > 0
