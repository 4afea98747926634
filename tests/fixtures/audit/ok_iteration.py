# repro: module=repro.experiments.fake_results_ok
"""Fixture: ordered/suppressed twins of bad_iteration.py."""


def rows(results: dict):
    out = []
    for key in sorted({"b", "a", "c"}):
        out.append(results[key])
    for key in {"b", "a"}:  # repro: allow(ITER001)
        out.append(key)
    return out
