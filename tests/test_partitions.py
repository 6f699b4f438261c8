import pytest

from paraclasses.partitions import check_partition, partitions


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
