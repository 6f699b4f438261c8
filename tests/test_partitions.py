import itertools

import pytest

from paraclasses.partitions import check_partition, partition_numbers, partitions


@pytest.mark.parametrize("lam,message", [
    ((2, 0, 3), "partition parts must be positive: (2, 0, 3)"),
    ((1, -1), "partition parts must be positive: (1, -1)"),
    ((1, 2), "partition parts must be weakly decreasing: (1, 2)"),
    ((3, 1, 2), "partition parts must be weakly decreasing: (3, 1, 2)")])
def test_check_partition_names_a_non_positive_part_before_a_rise(lam, message):
    with pytest.raises(ValueError) as ei:
        check_partition(lam)
    assert str(ei.value) == message


def test_partitions_refuse_a_negative_size():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        partitions(-1)


def test_partition_counts_match_the_listing():
    p = list(itertools.islice(partition_numbers(), 201))
    assert p[:31] == [len(partitions(k)) for k in range(31)]
    assert p[200] == 3972999029388  # MacMahon's p(200)
