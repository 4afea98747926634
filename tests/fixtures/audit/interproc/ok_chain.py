# repro: module=repro.mc.fake_chain_ok
"""Fixture: interproc twin — pure helpers and sanctioned sink lines."""

from repro_vendor.util import excused_now, pure_span


def duration(start, end):
    return pure_span(start, end)


def excused(log):
    # The sink line in helpers.py carries `# repro: allow(ST002)`,
    # which sanctions this transitive reach as well.
    log.append(excused_now())
