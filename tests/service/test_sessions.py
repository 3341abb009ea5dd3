"""Client-session model: arrival schedules, determinism, fairness metric."""

import pytest

from repro.service.session import ClientSession, make_sessions, fairness_spread
from repro.sim.rng import DeterministicRng
from repro.workloads.generator import Op, OpKind
from repro.workloads.records import KeySpace

KS = KeySpace(n_records=100, record_size=64)


def puts():
    i = 0
    while True:
        yield Op(OpKind.PUT, KS.key(i % KS.n_records), b"v" * 32)
        i += 1


def test_session_arrival_schedule_is_open_loop():
    session = ClientSession(0, puts(), n_ops=3, arrival_interval=0.5,
                            first_arrival=1.0)
    assert session.next_arrival == 1.0 and not session.exhausted
    session.take_op()
    assert session.next_arrival == 1.5
    session.take_op()
    session.take_op()
    assert session.exhausted
    with pytest.raises(ValueError):
        session.take_op()


def test_session_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ClientSession(0, puts(), n_ops=-1, arrival_interval=0.1)
    with pytest.raises(ValueError):
        ClientSession(0, puts(), n_ops=1, arrival_interval=0.0)


def test_make_sessions_rejects_bad_fractions_before_any_op():
    with pytest.raises(ValueError):
        make_sessions(2, 5, KS, DeterministicRng(0), arrival_interval=0.01,
                      write_fraction=0.8, scan_fraction=0.4)


def _streams(seed):
    sessions = make_sessions(4, 5, KS, DeterministicRng(seed),
                             arrival_interval=0.01)
    return [[s.take_op() for _ in range(5)] for s in sessions]


def test_make_sessions_is_deterministic_and_independent():
    first, second = _streams(7), _streams(7)
    assert first == second
    assert _streams(8) != first
    # Sessions draw from independent RNG splits, not a shared stream.
    assert first[0] != first[1]


def test_make_sessions_staggers_first_arrivals():
    sessions = make_sessions(4, 1, KS, DeterministicRng(0),
                             arrival_interval=0.04)
    assert [s.next_arrival for s in sessions] == [0.0, 0.01, 0.02, 0.03]
    explicit = make_sessions(4, 1, KS, DeterministicRng(0),
                             arrival_interval=0.04, stagger=0.0)
    assert all(s.next_arrival == 0.0 for s in explicit)


def test_fairness_spread():
    sessions = make_sessions(4, 1, KS, DeterministicRng(0),
                             arrival_interval=0.01)
    assert fairness_spread(sessions) == 0.0  # nothing completed yet
    for session in sessions:
        session.stats.completed = 10
    assert fairness_spread(sessions) == 0.0  # perfectly even
    sessions[0].stats.completed = 30
    # counts 30,10,10,10 -> spread (30-10)/15
    assert fairness_spread(sessions) == pytest.approx(20 / 15)


def test_session_stats_resolved_sums_every_outcome():
    session = ClientSession(0, puts(), n_ops=4, arrival_interval=0.1)
    session.stats.completed = 1
    session.stats.shed = 1
    session.stats.expired = 1
    session.stats.failed = 1
    assert session.stats.resolved == 4
