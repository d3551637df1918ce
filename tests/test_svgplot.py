import numpy as np
import pytest

from magnon_hybrid.svgplot import _nice_ticks


@pytest.mark.parametrize("g", [1.84, 2.0, 0.5, 1.7, 3.3])
def test_ticks_stable_under_last_bit_change(g):
    # g +/- 0.3 spans exactly six 0.1 steps, and some ends sit on a tick
    want = _nice_ticks(g - 0.3, g + 0.3)
    assert len(want) >= 6
    for moved in (g * (1.0 + 4e-16), g * (1.0 - 4e-16),
                  np.nextafter(g, 0.0), np.nextafter(g, np.inf)):
        assert _nice_ticks(moved - 0.3, moved + 0.3) == want


def test_ticks_cover_span():
    ticks = _nice_ticks(0.0, 1.0)
    assert ticks[0] == 0.0 and ticks[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(ticks), 0.2)
