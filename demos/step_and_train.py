"""Driving the system with steps and impulse trains.

The step response has the closed form f(n+3) - 1: the sequence again, shifted
and lowered by one.  It is the pole sum A phi^n + B phi~^n - 1 of the
Fibonacci system cascaded with the accumulator, and A and B are read off as
that system's partial-fraction residues.  A finite train of impulses is the
same input truncated, so its response peels away from the step response once
the train ends.
"""
from fiblti import (
    GOLDEN_RATIO,
    GOLDEN_RATIO_CONJUGATE,
    accumulator_system,
    cascade,
    convolve,
    fibonacci_system,
    make_impulse,
    make_step,
    partial_fractions,
    simulate_difference_equation,
    step_response_closed_form,
)

step = step_response_closed_form(8)
print("step response [0, 8]:", step.to_ints())
print("  (equals f(n+3) - 1 at every index; the sum meanders upward)")

phi = GOLDEN_RATIO
step_system = cascade(fibonacci_system(), accumulator_system())
residues = {t.pole.value: t.coefficient for t in partial_fractions(step_system).terms}
A, B = residues[phi], residues[GOLDEN_RATIO_CONJUGATE]
print("residues of the step system, the weights of A phi^n + B phi~^n - 1:")
print(f"  A = {A}  (= (2 phi + 1)/(2 phi - 1): {A == (2 * phi + 1) / (2 * phi - 1)})")
print(f"  B = {B}  (= 1/(4 phi + 3): {B == 1 / (4 * phi + 3)})")
print(f"  at z = 1: {residues[1]}")

sim = simulate_difference_equation(fibonacci_system(), make_step(9), 8)
print("recursion agrees    :", sim.to_ints())

impulse_response = simulate_difference_equation(fibonacci_system(), make_impulse(), 8)
print("\nweighted sum of the impulse response agrees too:",
      convolve(make_step(9), impulse_response).to_ints()[:9])

print("\ntrains of 1, 2, 3 impulses vs the step")
for count in (1, 2, 3):
    train = make_step(count)  # `count` unit impulses at n = 0..count-1
    response = simulate_difference_equation(fibonacci_system(), train, 8)
    print(f"  train({count}): {response.to_ints()}")
print("  step    :", step.to_ints())
print("  (each train matches the step until its last impulse, then lags)")
