"""The host-speed gauges: fixed work, and a rescaling that follows it."""

import pytest

import hostspeed
import workloads


@pytest.mark.parametrize("kind", sorted(hostspeed.NOMINAL_S))
def test_reference_work_takes_milliseconds(kind):
    assert 1e-4 < hostspeed.reference_s(kind, passes=2) < 1.0


def test_rescaling_is_the_wall_time_at_nominal_speed_and_follows_the_gauge():
    nominal = hostspeed.NOMINAL_S["python"]
    assert hostspeed.at_reference_speed(0.5, "python", nominal, nominal) == pytest.approx(0.5)
    # a host at half speed doubles both the round and the reference work
    assert hostspeed.at_reference_speed(1.0, "python", 2 * nominal, 2 * nominal) == \
        pytest.approx(0.5)
    assert hostspeed.at_reference_speed(0.5, "python", nominal, 3 * nominal) == \
        pytest.approx(0.25)


def test_every_workload_names_a_gauge():
    for wl in workloads.WORKLOADS.values():
        assert wl.GAUGE in hostspeed.NOMINAL_S, wl.name
