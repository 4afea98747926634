# repro: module=repro_vendor.util
"""Fixture: vendor-style helpers outside ``repro.*`` scope.

``repro_vendor`` is not a repro module, so ST002 starts no walk here:
its own clock reads are not findings. The wall clock hides two calls
deep behind ``wrapped_now``; only the whole-program pass can see a
sim-scope caller reach it.
"""

import time


def slow_now():
    return time.time()


def wrapped_now():
    return slow_now()


def excused_now():
    # The sanctioned boundary: an excused sink line is excused for
    # transitive callers too.
    return time.time()  # repro: allow(ST002)


def pure_span(start, end):
    return end - start
