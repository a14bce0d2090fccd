"""Plain-text reporting helpers for examples and benchmark harnesses."""


def format_table(rows, headers):
    """Format an iterable of row dicts (or sequences) as an aligned text table.

    Accepts any iterable (including generators) and the empty/None cases: an
    empty input renders the header and a ``(no data)`` marker instead of
    crashing, so reporting a failed or empty sweep stays safe.
    """
    rows = list(rows) if rows is not None else []
    if rows and isinstance(rows[0], dict):
        table = [[str(row.get(header, "")) for header in headers] for row in rows]
    else:
        table = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in table:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in table:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    if not table:
        lines.append("(no data)")
    return "\n".join(lines)


def format_run_results(results):
    """Format :class:`~repro.harness.runner.RunResult` objects (empty-safe)."""
    rows = [
        {
            "configuration": result.configuration,
            "clients": result.clients,
            "throughput (txn/s)": f"{result.throughput:.1f}",
            "abort rate": f"{result.abort_rate:.1%}",
            "mean latency (ms)": f"{result.mean_latency * 1000:.2f}",
        }
        for result in (results if results is not None else ())
    ]
    headers = [
        "configuration",
        "clients",
        "throughput (txn/s)",
        "abort rate",
        "mean latency (ms)",
    ]
    return format_table(rows, headers)
