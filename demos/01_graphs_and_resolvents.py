"""Tour of the monotone-graph toolbox.

Every boundary and interior law in this package is a scalar maximal
monotone graph: Dirichlet pins the trace to 0 (value set R), Neumann is the
zero graph, power-law radiation is alpha*|r|^(q-2)*r, and the obstacle
graph is the subdifferential of the indicator of [-M, M].  The stepper only
ever talks to them through resolvents, so this script walks through value
sets, resolvents, Yosida approximations, and the domination checks that
decide, in closed form, when two boundary laws are comparable.
"""

from mmrd import (
    dirichlet_graph,
    dominates,
    eval_graph,
    extended_neumann_graph,
    extended_power_graph,
    obstacle_graph,
    power_graph,
    resolvent,
    yosida,
)

zoo = {
    "dirichlet": dirichlet_graph(),
    "power(1, 2.5)": power_graph(1.0, 2.5),
    "extended power(1, 2.5)": extended_power_graph(1.0, 2.5),
    "extended neumann": extended_neumann_graph(),
    "obstacle(1)": obstacle_graph(1.0),
}

print("== value sets gamma(r) ==")
for name, G in zoo.items():
    sets = {r: eval_graph(G, r) for r in (-1.0, 0.0, 0.5, 1.0)}
    pretty = ", ".join(f"gamma({r:g}) = {s}" for r, s in sets.items())
    print(f"{name:>24}: {pretty}")

print("\n== resolvents x + lam*gamma(x) = r, lam = 0.5 ==")
for name, G in zoo.items():
    xs = [resolvent(G, 0.5, r) for r in (-2.0, 0.3, 2.0)]
    print(f"{name:>24}: r in (-2, 0.3, 2) -> x = " + ", ".join(f"{x:.6f}" for x in xs))

print("\n== Yosida approximation of the obstacle graph ==")
print("matches the piecewise formula (r -/+ M)/lam outside [-M, M], 0 inside:")
for r in (-2.0, 0.3, 2.0):
    print(f"  lam=0.5, r={r:>4}: yosida = {yosida(zoo['obstacle(1)'], 0.5, r):.6f}")
print("and converges to the selection as lam -> 0 (here at r = 2 for the power graph):")
for lam in (1e-1, 1e-3, 1e-5):
    val = yosida(zoo["power(1, 2.5)"], lam, 2.0)
    print(f"  lam={lam:.0e}: {val:.8f}  (selection value {2.0 ** 1.5:.8f})")

print("\n== domination: when is boundary law 1 'below' boundary law 2? ==")
zoo["power(1, 3)"] = power_graph(1.0, 3.0)
zoo["power(1.01, 3)"] = power_graph(1.01, 3.0)
pairs = [
    ("dirichlet", "extended power(1, 2.5)"),
    ("extended power(1, 2.5)", "extended neumann"),
    ("extended neumann", "extended power(1, 2.5)"),  # the swap must fail
    # gamma2 = 1.01 r|r| exceeds gamma1 = r|r| at every r > 0: decided in
    # closed form, this fails; a 201-point sample on [-50, 50] passed it
    ("power(1, 3)", "power(1.01, 3)"),
]
for n1, n2 in pairs:
    v = dominates(zoo[n1], zoo[n2])
    if v.holds:
        print(f"{n1} <= {n2}: holds via mode ({v.mode})")
    else:
        r1, r2, inf1, sup2 = v.witness
        print(f"{n1} <= {n2}: fails, witness r1={r1!r} > r2={r2!r} "
              f"with sup gamma2 = {sup2!r} > inf gamma1 = {inf1!r}")
