# repro: module=repro.experiments.fake_results
"""Fixture: iteration-order hazards (ITER001)."""


def rows(results: dict):
    out = []
    for key in {"b", "a", "c"}:
        out.append(results[key])
    ordered = list(set(results))
    return out, ordered
