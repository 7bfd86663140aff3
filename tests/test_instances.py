import hashlib
import json
import math
import sys

import pytest

from kdcover.geometry import ZERO_POLY, squared_distance_poly
from kdcover.instances import (
    FormatError,
    GenParams,
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


def trajectory_length(obj):
    dx = obj.end.x - obj.start.x
    dy = obj.end.y - obj.start.y
    return math.sqrt(dx * dx + dy * dy)


def test_gen_random_basic():
    params = GenParams(n=200, m=8, seed=21)
    inst = generate(params)
    assert (inst.n, inst.m) == (200, 8)
    for obj in inst.objects:
        length = trajectory_length(obj)
        assert 25.0 <= length <= 50.0
        for pt in (obj.start, obj.end):
            assert 0.0 <= pt.x <= 100.0 and 0.0 <= pt.y <= 100.0
    for st in inst.stations:
        assert 0.0 <= st.x <= 100.0 and 0.0 <= st.y <= 100.0


def test_gen_random_deterministic():
    params = GenParams(n=40, m=4, seed=5)
    assert instance_to_json(generate(params)) == instance_to_json(generate(params))


def test_gen_empty():
    inst = generate(GenParams(n=0, m=1, seed=0))
    assert inst.n == 0 and inst.m == 1


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, len_min=60.0, len_max=50.0)
    with pytest.raises(ValueError):
        GenParams(n=-1, m=1)
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, instance_class="weird")


def test_degenerate_classes():
    start = generate(GenParams(n=30, m=3, seed=3, instance_class="same_start"))
    assert len({(o.start.x, o.start.y) for o in start.objects}) == 1

    end = generate(GenParams(n=30, m=3, seed=4, instance_class="same_end"))
    assert len({(o.end.x, o.end.y) for o in end.objects}) == 1
    again = generate(GenParams(n=30, m=3, seed=4, instance_class="same_end"))
    assert instance_to_json(end) == instance_to_json(again)

    slope = generate(GenParams(n=100, m=3, seed=5, instance_class="same_slope"))
    dirs = set()
    for o in slope.objects:
        length = trajectory_length(o)
        dirs.add((round((o.end.x - o.start.x) / length, 12), round((o.end.y - o.start.y) / length, 12)))
    assert len(dirs) == 1

    for o in start.objects + end.objects + slope.objects:
        assert 25.0 <= trajectory_length(o) <= 50.0


@pytest.mark.parametrize("klass, seed", sorted(PINNED_INSTANCES))
def test_generated_instances_are_pinned(klass, seed):
    params = GenParams(n=40, m=6, seed=seed, instance_class=klass)
    text = instance_to_json(generate(params))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_INSTANCES[klass, seed]


def test_instance_round_trip(tmp_path):
    inst = generate(GenParams(n=25, m=3, seed=77))
    path = tmp_path / "inst.json"
    write_instance(path, inst)
    back = read_instance(path)
    assert back == inst
    write_instance(path, back)
    assert path.read_text() == instance_to_json(inst)

    empty = generate(GenParams(n=0, m=2, seed=1))
    write_instance(path, empty)
    assert read_instance(path) == empty


def test_instance_format_errors():
    inst = generate(GenParams(n=2, m=1, seed=0))
    text = instance_to_json(inst)
    with pytest.raises(FormatError):
        instance_from_json(text.replace('"version": 1', '"version": 3'))
    with pytest.raises(FormatError):
        instance_from_json('{"format": "other"}')
    with pytest.raises(FormatError):
        instance_from_json("not json at all")
    doc = json.loads(text)
    for field, value in (("metadata", ["x"]), ("canvas", ["5"]), ("canvas", ["nan", "5"]),
                         ("canvas", ["-5", "5"]), ("stations", []),
                         ("stations", [["0.0", "0.0"], ["1e+200", "0.0"]])):
        with pytest.raises(FormatError):
            instance_from_json(json.dumps(dict(doc, **{field: value})))


def instance_text(stations, objects):
    return json.dumps({
        "format": "kdc-instance", "version": 1, "canvas": None,
        "stations": [[repr(float(x)), repr(float(y))] for x, y in stations],
        "objects": [{"start": [repr(float(a)), repr(float(b))],
                     "end": [repr(float(c)), repr(float(d))]} for (a, b), (c, d) in objects],
    })


@pytest.mark.parametrize("m", [1, 2, 25])
def test_every_readable_instance_subtracts_its_objectives_in_range(m):
    """At the largest magnitude that reads, m stations at one corner give
    the largest squared-distance coefficients, for an object crossing to
    them from the other corner and for one leaving them; the difference of
    the two objectives, each summed over the m stations, and its values
    stay finite, as at 1e100.  A magnitude one percent larger is rejected."""
    limit = math.sqrt(sys.float_info.max / (128 * max(m, 2)))
    for scale, reads in ((1e100, True), (limit, True), (limit * 1.01, False)):
        text = instance_text([(-scale, -scale)] * m, [((scale, scale), (-scale, -scale)),
                                                       ((0, 0), (scale, scale))])
        if not reads:
            with pytest.raises(FormatError):
                instance_from_json(text)
            continue
        inst = instance_from_json(text)
        diff = ZERO_POLY
        for st in inst.stations:
            diff = diff + squared_distance_poly(st, inst.objects[0])
        for st in inst.stations:
            diff = diff - squared_distance_poly(st, inst.objects[1])
        assert all(math.isfinite(v) for v in (diff.a, diff.b, diff.c))
        assert all(math.isfinite(diff(t)) for t in (0.0, 0.25, 0.5, 1.0))
