import pytest
from hypothesis import settings

from probvoter.logic import parse_expression, parse_table_file

TWO_ONES_FILE = b"a b c d\n0000000000001010\n"

# The same examples on every run and in every checkout: no random seed and
# no example database replaying failures found elsewhere.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def nested_chain(n, depth):
    """v0+(v1&(v2+(... over n variables: `depth` values pending at once."""
    ops = "+&"
    head = "".join(f"v{i % n}{ops[i % 2]}(" for i in range(depth - 1))
    return head + f"v{(depth - 1) % n}" + ")" * (depth - 1)


@pytest.fixture
def two_ones():
    """4-input reference function with two 1-rows (heavily skewed toward 0)."""
    return parse_table_file(TWO_ONES_FILE)


@pytest.fixture
def four_ones():
    """4-input reference function with four 1-rows."""
    return parse_expression("!a&!b&c + a&b&!d", ("a", "b", "c", "d"))
