import operator

import pytest

from densebip.parallel import iter_indexed


@pytest.mark.parametrize("count", [0, 1, 2, 11])
def test_pool_yields_the_serial_pairs(count):
    # 11 indices at 2 workers: chunks of 2, the last one short
    serial = list(iter_indexed(operator.pow, 3, count))
    assert serial == [(i, 3**i) for i in range(count)]
    assert list(iter_indexed(operator.pow, 3, count, workers=2)) == serial


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        list(iter_indexed(operator.pow, 3, -1))
