"""The frozen sign conventions of the engine, printable from the CLI.

Every formula in the package is derived from these choices and certified by
the cross-module identity suites in the tests; changing any line here
changes results.
"""

CONVENTIONS = """\
superdelta frozen sign conventions
==================================

Coordinate bracket
  {f,g} = S^{ab} d_b f d_a g (-1)^{p(a) p(f)}, with the forced graded
  symmetry S^{ba} = (-1)^{p(a) p(b)} S^{ab} for a bracket of either parity
  (so S[y,x] = S[x,y] unless x and y are both odd).
  The antibracket normalization is {f,g}_P = (-1)^{p(f)+1} {f,g}; in this
  normalization the odd Laplacian satisfies
  Delta(fg) = (Delta f) g + (-1)^{p(f)} f (Delta g) + (-1)^{p(f)+1} {f,g}_P
  and is a derivation of {.,.}_P when the bracket satisfies Jacobi.

Hamiltonian field and Lie derivative
  X_f(g) = {f,g} (unnormalized convention);
  div X = (-1)^{p(a)(p(X)+1)} d_a X^a;  L_X = X + w div X on w-densities.

Odd Laplacian and volume forms
  rho = e^sigma Dx;  Delta_rho = (1/2) e^{-sigma} d_a (e^sigma S^{ab} d_b .)
  (the modular vector field of an even Poisson tensor carries no 1/2).
  Delta_{e^sigma rho} = Delta_rho + (1/2) X_sigma.
  Delta_{e^sigma rho}^2 = Delta_rho^2 - X_H with
  H = e^{-sigma/2} Delta_rho e^{sigma/2} (the master discrepancy).

Densities of weight w  (resolved by exact computation)
  [Delta, f.] = L_{X_f} + (1-2w)(Delta_rho f). as operators on w-densities.
  Delta_{e^sigma rho} = Delta_rho + (1/2)(1-2w) L_{X_sigma} - 4w(1-w) H.
  On half-densities (w = 1/2):  Delta_{e^sigma rho} = Delta_rho - H,
  so the action is rho-independent exactly on master-equation orbits.

Canonical pencil (weight symbol W)
  Delta_w = 1/2 ( S^{ab} d_b d_a
                  + (d_b S^{ba} (-1)^{p(b)(eps+1)} + (2w-1) gamma^a) d_a
                  + w d_a gamma^a (-1)^{p(a)(eps+1)} + w(w-1) theta ).
  Laplace-Beltrami data of rho = e^sigma Dx:
  gamma^a = -S^{ab} d_b sigma, theta = -gamma^a gamma_a with
  gamma_a = d_a sigma; then Delta_w = e^{w sigma} Delta_rho e^{-w sigma}.

Formal adjoint (frozen table)
  (f.)* = f.,  (d_a)* = -d_a (both parities),  W* = 1 - W,
  (DE)* = (-1)^{p(D) p(E)} E* D*;
  certified against the Berezin-integral pairing
  <D psi, chi> = (-1)^{p(D) p(psi)} <psi, D* chi>.

Higher derived brackets
  {a_1,...,a_n} = [...[[Delta, a_1.], a_2.], ..., a_n.] 1;  the Leibniz
  obstruction of the k-ary bracket equals + the (k+1)-ary bracket.
  Jacobiator: J^n = sum over k+l = n and (k,l)-shuffles s of
  sign(s) {{a_{s(1)},...,a_{s(k)}}, a_{s(k+1)},...,a_{s(n)}} with the PURE
  Koszul permutation sign (no extra arity-dependent sign); then
  J^n_Delta = {...}_{Delta^2} - sum over k and s of
  sign(s) (-1)^{p(Delta) p(a_S)} {a_S} {a_R}, S = s(1..k), R = s(k+1..n),
  {a_S} = Delta 1 for k = 0; the product sum vanishes for odd Delta, so there
  J^n_Delta = {...}_{Delta^2}.
"""
