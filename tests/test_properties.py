"""Property tests on perturbations of the default m=5 build: serialization
round-trips bit-exactly, the compiled network equals the instance, the flow
system's column sums are the tracked moments, and the smoothed density
integrates to 1 with the moments of the binomial identity."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentforge import (
    PushforwardDist,
    build_system,
    compile_instance,
    instance_eval,
    moment_vector,
)
from momentforge.serialize import instance_from_payload, instance_payload

property_settings = settings(max_examples=60, deadline=None, derandomize=True)

# Relative height changes and ramp widths that keep the m=5 supports disjoint
# (their narrowest gap is ~0.27, so two ramps of at most 0.1 still fit).
height_factors = arrays(np.float64, 2, elements=st.floats(0.5, 1.5))
ramps = st.floats(1e-5, 0.1)


def perturbed(build5, factors, eps):
    _, evolved, _ = build5
    return evolved.with_state(evolved.left_heights() * factors, eps)


@property_settings
@given(factors=height_factors, eps=ramps)
def test_instance_payload_round_trips_bit_exactly(build5, factors, eps):
    inst = perturbed(build5, factors, eps)
    text = json.dumps(instance_payload(inst))
    rebuilt = instance_from_payload(json.loads(text))
    assert rebuilt == inst
    assert json.dumps(instance_payload(rebuilt)) == text


@property_settings
@given(
    factors=height_factors,
    eps=ramps,
    z=arrays(np.float64, st.integers(1, 256), elements=st.floats(-5.0, 5.0)),
)
def test_compiled_network_equals_instance(build5, factors, eps, z):
    # The telescoping ReLU sums cancel to the same 1e-9 * max|h| bound that
    # the export regime meets (see test_network.TestCompile).
    inst = perturbed(build5, factors, eps)
    hmax = float(np.max(np.abs(inst.heights())))
    err = np.max(np.abs(compile_instance(inst).eval(z) - instance_eval(inst, z)))
    assert err <= 1e-9 * max(1.0, hmax)


@property_settings
@given(factors=height_factors, eps=ramps)
def test_system_column_sums_are_the_tracked_moments(build5, factors, eps):
    # The flow reads its moment residuals from Z; the sums must be bit-identical.
    inst = perturbed(build5, factors, eps)
    assert np.array_equal(build_system(inst).Z.sum(axis=0), moment_vector(inst))


@property_settings
@given(factors=height_factors, eps=ramps, sigma=st.floats(0.01, 0.5))
def test_density_integrates_to_the_moment_identities(build5, factors, eps, sigma):
    dist = PushforwardDist.from_instance(perturbed(build5, factors, eps), sigma)
    assert abs(dist.law.expectation(lambda t: 1.0) - 1.0) <= 1e-9
    for k in range(1, 7):
        want = dist.moment(k)
        got = dist.law.expectation(lambda t, k=k: t**k)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
