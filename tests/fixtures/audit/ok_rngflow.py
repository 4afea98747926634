# repro: module=repro.net.fake_rngflow_ok
"""Fixture: rng-flow twin — derived, unique labels only."""


def independent_routes(factory, count):
    # Loop-index labels: unique by construction, fully derived.
    return [factory.spawn(f"route-{index}") for index in range(count)]


def derived(rng, adversary_name):
    return rng.stream("adv-" + adversary_name)


def formatted(rng, trial):
    return rng.stream("trial-{}".format(trial))


def cross_namespace(factory):
    # One label across namespaces is legal: `stream`, `spawn`, and
    # `nonce_source` prefix their key material differently.
    stream = factory.stream("alpha")
    child = factory.spawn("alpha")
    nonces = factory.nonce_source("alpha")
    return stream, child, nonces


def unrelated_receiver(schedule):
    # FaultSchedule.stream is not an RNG label site; no receiver hint.
    return schedule.stream("alpha")
