import hashlib
import math

import pytest

from kdcover.instances import (
    FormatError,
    GenParams,
    gen_degenerate,
    gen_random,
    generate,
    instance_from_json,
    instance_to_json,
    read_instance,
    write_instance,
)

# sha256 prefixes of `instance_to_json` at n=40, m=6; they change with any
# change to the generator's random draws or their order.
PINNED_INSTANCES = {
    ("random", 0): "45aaef5eeec51fa2",
    ("random", 7): "36330cf0cf0feceb",
    ("same_slope", 0): "d5b7141702661736",
    ("same_slope", 7): "dfa5c60a09375d14",
    ("same_start", 0): "3b4e126035db1087",
    ("same_start", 7): "80b3eeae226cde15",
    ("same_end", 0): "bc4d1ebc1e83b039",
    ("same_end", 7): "5a0f7cd3dcd95043",
}


def test_gen_random_basic():
    params = GenParams(n=200, m=8, seed=21)
    inst = gen_random(params)
    assert (inst.n, inst.m) == (200, 8)
    for obj in inst.objects:
        length = math.sqrt(obj.length_sq)
        assert 25.0 <= length <= 50.0
        for pt in (obj.start, obj.end):
            assert 0.0 <= pt.x <= 100.0 and 0.0 <= pt.y <= 100.0
    for st in inst.stations:
        assert 0.0 <= st.x <= 100.0 and 0.0 <= st.y <= 100.0


def test_gen_random_deterministic():
    params = GenParams(n=40, m=4, seed=5)
    assert instance_to_json(gen_random(params)) == instance_to_json(gen_random(params))


def test_gen_empty():
    inst = gen_random(GenParams(n=0, m=1, seed=0))
    assert inst.n == 0 and inst.m == 1


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, len_min=60.0, len_max=50.0)
    with pytest.raises(ValueError):
        GenParams(n=-1, m=1)
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, instance_class="weird")


def test_degenerate_classes():
    start = gen_degenerate(GenParams(n=30, m=3, seed=3, instance_class="same_start"))
    assert len({(o.start.x, o.start.y) for o in start.objects}) == 1

    end = gen_degenerate(GenParams(n=30, m=3, seed=4, instance_class="same_end"))
    assert len({(o.end.x, o.end.y) for o in end.objects}) == 1
    again = gen_degenerate(GenParams(n=30, m=3, seed=4, instance_class="same_end"))
    assert instance_to_json(end) == instance_to_json(again)

    slope = gen_degenerate(GenParams(n=100, m=3, seed=5, instance_class="same_slope"))
    dirs = set()
    for o in slope.objects:
        length = math.sqrt(o.length_sq)
        dirs.add((round((o.end.x - o.start.x) / length, 12), round((o.end.y - o.start.y) / length, 12)))
    assert len(dirs) == 1

    for o in start.objects + end.objects + slope.objects:
        assert 25.0 <= math.sqrt(o.length_sq) <= 50.0


@pytest.mark.parametrize("klass, seed", sorted(PINNED_INSTANCES))
def test_generated_instances_are_pinned(klass, seed):
    params = GenParams(n=40, m=6, seed=seed, instance_class=klass)
    text = instance_to_json(generate(params))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_INSTANCES[klass, seed]
    named = gen_random if klass == "random" else gen_degenerate
    assert instance_to_json(named(params)) == text


def test_named_generators_check_the_class():
    with pytest.raises(ValueError):
        gen_random(GenParams(n=1, m=1, instance_class="same_end"))
    with pytest.raises(ValueError):
        gen_degenerate(GenParams(n=1, m=1))


def test_instance_round_trip(tmp_path):
    inst = gen_random(GenParams(n=25, m=3, seed=77))
    path = tmp_path / "inst.json"
    write_instance(path, inst)
    back = read_instance(path)
    assert back == inst
    write_instance(path, back)
    assert path.read_text() == instance_to_json(inst)

    empty = gen_random(GenParams(n=0, m=2, seed=1))
    write_instance(path, empty)
    assert read_instance(path) == empty


def test_instance_format_errors():
    inst = gen_random(GenParams(n=2, m=1, seed=0))
    text = instance_to_json(inst)
    with pytest.raises(FormatError):
        instance_from_json(text.replace('"version": 1', '"version": 3'))
    with pytest.raises(FormatError):
        instance_from_json('{"format": "other"}')
    with pytest.raises(FormatError):
        instance_from_json("not json at all")
