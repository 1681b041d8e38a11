"""Same seed, same inputs; another seed, other inputs."""

import pytest

from perf import gen
from perf.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_list_is_a_function_of_the_seed(name):
    def digest(seed):
        return gen.digest(WORKLOADS[name](seed, "", smoke=True).plan(2))

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_payloads_are_random_access_and_seeded():
    assert gen.payload(1, "append", 5, 256) == gen.payload(1, "append", 5, 256)
    assert gen.payload(1, "append", 5, 256) != gen.payload(2, "append", 5, 256)
    assert gen.payload(1, "append", 5, 256) != gen.payload(1, "append", 6, 256)
    assert gen.payload(1, "append", 5, 256) != gen.payload(1, "preload", 5, 256)
    assert len(gen.payload(1, "bulk", 0, 16384)) == 16384


def test_digest_tells_structure_apart():
    assert gen.digest([b"ab", b"c"]) != gen.digest([b"a", b"bc"])
    assert gen.digest([[1, 2], [3]]) != gen.digest([[1], [2, 3]])
