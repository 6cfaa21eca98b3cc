"""Checks of each operation's output against reference.py or a property.

``problems(op, output, first_outputs)`` returns a list of strings, empty when
the output is right.  Tolerances are the program's documented ones where it
documents one, and otherwise a few orders above float64 rounding; each is
named where it is used.
"""

from __future__ import annotations

import csv
import math

import mpmath as mp
import numpy as np

import reference as ref

# Per-point z-bounds for Monte Carlo checks.  A converge row takes the max of
# 41 grid points, so its bound is wider; see README for the arithmetic.
Z_SCALAR = 5.0
Z_GRID = 6.0

RTOL = 1e-9  # analytic values against the 40-digit references
ATOL = 1e-290  # below this, float64 results are subnormal or zero
EFGM_ATOL = 1e-10  # the documented absolute tolerance of the EFGM quadrature path
AMH_MIX_ATOL = 1e-5  # the 64-node quadrature mixture against its closed form
QUANTILE_RTOL = 1e-6  # D(Q(q)) = q, relative to q


def _close(got, want, rtol=RTOL, atol=ATOL) -> bool:
    return abs(mp.mpf(got) - want) <= rtol * abs(want) + atol


def _table(text: str, header: list[str]) -> tuple[list[list[str]] | None, list[str]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# maxdep "):
        return None, ["missing metadata line"]
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != header:
        return None, [f"header {rows[0] if rows else None} != {header}"]
    return rows[1:], []


def _cli_output(output, header):
    if "error" in output:
        return None, [output["error"]]
    if output["rc"] != 0:
        return None, [f"exit code {output['rc']}"]
    return _table(output["text"], header)


def check_diagonal(op, output):
    c = op["check"]
    rows, issues = _cli_output(output, ["n", "u", "delta", "distortion"])
    if rows is None:
        return issues
    if len(rows) != len(c["n"]) * len(c["u"]):
        return [f"{len(rows)} rows, expected {len(c['n']) * len(c['u'])}"]
    fam = ref.family(c["family"])
    atol = EFGM_ATOL if c["family"][0] == "efgm" else ATOL
    it = iter(rows)
    for n in c["n"]:
        prev_d = prev_p = -1.0
        for u in c["u"]:
            rn, ru, rd, rp = next(it)
            d, p = float(rd), float(rp)
            if int(rn) != n or float(ru) != u:
                issues.append(f"row ({rn}, {ru}) where ({n}, {u}) was asked")
                continue
            if not (max(n * u - n + 1.0, 0.0) - 1e-15 <= d <= u * (1 + 1e-15)):
                issues.append(f"n={n} u={u}: delta {d} outside the Frechet bounds")
            if not _close(d, fam.delta(n, u), atol=atol):
                issues.append(f"n={n} u={u}: delta {d} != reference {mp.nstr(fam.delta(n, u), 17)}")
            if not (0.0 <= p <= 1.0) or not _close(p, fam.dist_col(n, u), atol=atol):
                issues.append(f"n={n} u={u}: distortion {p} != reference {mp.nstr(fam.dist_col(n, u), 17)}")
            if d < prev_d * (1 - 1e-12) or p < prev_p * (1 - 1e-12):
                issues.append(f"n={n} u={u}: not nondecreasing in u")
            prev_d, prev_p = d, p
    return issues


def check_distortion(op, output):
    c = op["check"]
    rows, issues = _cli_output(output, ["family", "u", "cdf", "density", "quantile"])
    if rows is None:
        return issues
    if len(rows) != len(c["families"]) * len(c["u"]):
        return [f"{len(rows)} rows, expected {len(c['families']) * len(c['u'])}"]
    it = iter(rows)
    for label, spec in c["families"]:
        fam = ref.family(spec)
        mix = spec[0] == "amh-mixture"
        underflow_level = fam.D(ref.DBL_MIN)  # levels below it have quantiles below DBL_MIN
        prev = -1.0
        for q in c["u"]:
            rl, ru, rc, rdens, rq = next(it)
            if rl != label or float(ru) != q:
                issues.append(f"row ({rl}, {ru}) where ({label}, {q}) was asked")
                continue
            cdf, dens = float(rc), float(rdens)
            where = f"{label} u={q}"
            if not (0.0 <= cdf <= 1.0) or cdf < prev:
                issues.append(f"{where}: cdf {cdf} outside [0, 1] or decreasing")
            if not _close(cdf, fam.D(q), atol=AMH_MIX_ATOL if mix else ATOL):
                issues.append(f"{where}: cdf {cdf} != reference {mp.nstr(fam.D(q), 17)}")
            if not dens >= 0.0:
                issues.append(f"{where}: density {dens} < 0")
            prev = cdf
            Q = float(rq) if rq else math.nan
            if not 0.0 <= Q <= 1.0:
                issues.append(f"{where}: quantile {rq!r} outside [0, 1]")
            elif q < underflow_level:
                if Q > ref.DBL_MIN:
                    issues.append(f"{where}: quantile {Q}, the true one is below DBL_MIN")
            elif not _close(fam.D(Q), mp.mpf(q), rtol=QUANTILE_RTOL, atol=AMH_MIX_ATOL if mix else 0.0):
                issues.append(f"{where}: D(quantile) = {mp.nstr(fam.D(Q), 10)} != {q}")
    return issues


def check_bound(op, output):
    c = op["check"]
    scenario = c["scenario"]
    header = {
        "movingmax-normal": ["n", "bound", "margin_term", "ceiling_term", "distortion_term", "holder_K", "holder_kappa"],
        "logistic-normal": ["n", "bound", "margin_term", "ceiling_term"],
        "cuadras-auge": ["n", "exact", "bound"],
        "iid-frechet": ["n", "bound", "margin_term", "ceiling_term", "distortion_term"],
    }[scenario]
    rows, issues = _cli_output(output, header)
    if rows is None:
        return issues
    if [int(r[0]) for r in rows] != c["n"]:
        return [f"n column {[r[0] for r in rows]} != {c['n']}"]
    three_over_e = 3 / mp.e
    for row in rows:
        n, vals = int(row[0]), [float(v) for v in row[1:]]
        if scenario == "movingmax-normal":
            k = c["k"]
            kappa = mp.mpf(1) / (k + 1)
            s = ref.power_gap_sup(kappa, mp.mpf(k) / (n * (k + 1)))
            margin = 3 / mp.log(n)
            want = [margin ** kappa + s, margin, 0, s, 1, kappa]
        elif scenario == "logistic-normal":
            r = mp.mpf(n) ** (1 / mp.mpf(c["theta"]))
            margin, ceiling = 3 / mp.log(mp.ceil(r)), three_over_e / r
            want = [margin + ceiling, margin, ceiling]
        elif scenario == "cuadras-auge":
            th = mp.mpf(c["theta"])
            exact = ref.power_gap_sup((1 - (1 - th) ** n) / th, (1 - th) ** n / th)
            want = [exact, three_over_e * (1 - th) ** n]
            if vals[0] > vals[1]:
                issues.append(f"n={n}: exact {vals[0]} above its bound {vals[1]}")
        else:
            want = [0, 0, 0, 0]
        for got, w, name in zip(vals, want, header[1:]):
            if not _close(got, w, atol=1e-300):
                issues.append(f"n={n}: {name} {got} != reference {mp.nstr(w, 17)}")
    return issues


def check_mixing(op, output):
    c = op["check"]
    rows, issues = _cli_output(output, ["n", "v", "discrepancy"])
    if rows is None:
        return issues
    if [int(r[0]) for r in rows] != c["n"]:
        return [f"n column {[r[0] for r in rows]} != {c['n']}"]
    fam = ref.family(c["family"])
    for rn, rv, rdisc in rows:
        n, v, disc = int(rn), float(rv), float(rdisc)
        if not _close(v, mp.exp(mp.log(c["u"]) / fam.rate(n)), rtol=1e-12):
            issues.append(f"n={n}: level v {v} != u^(1/r_n)")
        issues += _mixing_issue(fam, n, c["t1"], c["t2"], v, disc)
    return issues


def _mixing_issue(fam, n, t1, t2, v, disc):
    m1, m2 = math.ceil(n * t1), math.ceil(n * t2)
    want = abs(fam.delta(m1 + m2, v) - fam.delta(m1, v) * fam.delta(m2, v))
    # a difference of nearly equal probabilities: absolute error near 1e-16
    if not _close(disc, want, rtol=1e-7, atol=1e-14):
        return [f"n={n} v={v}: discrepancy {disc} != reference {mp.nstr(want, 17)}"]
    return []


def check_converge(op, output, first_outputs):
    c = op["check"]
    if c["same_as"] is not None:
        other = first_outputs[c["same_as"]]
        if output != other:
            return ["output differs from the same run at another worker count"]
    rows, issues = _cli_output(output, ["n", "sup_distance", "max_se", "bound"])
    if rows is None:
        return issues
    if [int(r[0]) for r in rows] != c["n"]:
        return [f"n column {[r[0] for r in rows]} != {c['n']}"]
    levels = np.linspace(0.02, 0.98, 41)
    spec = c["family"]
    fam = ref.family(spec) if spec else None
    for rn, rsup, rse, rbound in rows:
        n, sup, se = int(rn), float(rsup), float(rse)
        slack = Z_GRID * se
        N = int(mp.ceil(fam.rate(n))) if fam else n
        cn, dn, F, Hq = ref.normalizers(c["margin"], N, c["alpha"])
        xs = [Hq(mp.mpf(p)) for p in levels]
        targets = [fam.D(mp.mpf(p)) if fam else mp.mpf(p) for p in levels]  # D(H(x)) at x = H^-1(p)
        if fam:
            s_n = max(abs(fam.delta(n, F(cn * x + dn)) - t) for x, t in zip(xs, targets))
            if abs(sup - s_n) > slack:
                issues.append(f"n={n}: sup_distance {sup} vs exact {mp.nstr(s_n, 6)} beyond {Z_GRID} max_se")
        else:
            # Slepian, phi > 0: Phi(t)^n <= P(M_n <= t) <= Phi(t) at t = c x + d
            lo_hi = [(F(cn * x + dn) ** n, F(cn * x + dn)) for x in xs]
            upper = max(max(abs(a - t), abs(b - t)) for (a, b), t in zip(lo_hi, targets))
            lower = max(max(a - t, t - b, 0) for (a, b), t in zip(lo_hi, targets))
            if not lower - slack <= sup <= upper + slack:
                issues.append(f"n={n}: sup_distance {sup} outside the Slepian range "
                              f"[{mp.nstr(lower, 6)}, {mp.nstr(upper, 6)}]")
        if rbound:
            bound = float(rbound)
            if sup > bound + slack:
                issues.append(f"n={n}: sup_distance {sup} above the bound {bound}")
            if c["model"] == "movingmax":
                k = spec[1]
                want = ref.power_gap_sup(mp.mpf(1) / (k + 1), mp.mpf(k) / (n * (k + 1)))
            else:  # iid, normal margin: Hall's 3/log N
                want = 3 / mp.log(N)
            if not _close(bound, want, rtol=1e-8):
                issues.append(f"n={n}: bound {bound} != reference {mp.nstr(want, 17)}")
    return issues


def _z(count_or_p, p, reps, what):
    p_hat = count_or_p / reps if isinstance(count_or_p, int) else count_or_p
    se = math.sqrt(max(p * (1 - p), 0.0) / reps)
    if se == 0.0:
        return [] if p_hat == p else [f"{what}: {p_hat} where the exact value is {p}"]
    z = abs(p_hat - p) / se
    return [] if z <= Z_SCALAR else [f"{what}: estimate {p_hat} vs exact {p:.6g}, z = {z:.2f}"]


def check_mc(op, output):
    if isinstance(output, dict) and "error" in output:
        return [output["error"]]
    c, reps, n = op["check"], op["reps"], op["n"]
    if c["kind"] == "mc_diag":
        p = float(ref.family(c["family"]).delta(n, op["u"]))
        return _z(output[0], p, reps, f"delta_{n}({op['u']:.6g})")
    if c["kind"] == "berman":
        issues = []
        for count, x in zip(output, c["x"]):
            issues += _z(count, ref.berman_cdf(c["rho"], n, x), reps, f"P(M_{n} <= {x:.4f})")
        return issues
    u = op["u"]  # sample_paths
    issues = _z(output[1], u, reps, f"P(U_1 <= {u:.4g})")
    if c["family"]:
        return issues + _z(output[0], float(ref.family(c["family"]).delta(n, u)), reps, f"P(max <= {u:.4g})")
    lo, hi = u**n, u  # Slepian bounds for a positively correlated Gaussian path
    p_hat = output[0] / reps
    lo_se, hi_se = math.sqrt(lo * (1 - lo) / reps), math.sqrt(hi * (1 - hi) / reps)
    if not lo - Z_SCALAR * lo_se <= p_hat <= hi + Z_SCALAR * hi_se:
        issues.append(f"P(max <= {u:.4g}) = {p_hat} outside the Slepian range [{lo:.4g}, {hi:.4g}]")
    return issues


def check_sup(op, output):
    if isinstance(output, dict):
        return [output["error"]]
    fam = ref.family(op["family"])
    n = op["n"]
    want = ref.unit_sup(lambda u: abs(fam.dist_col(n, u) - fam.D(u)))
    if not _close(output, want, rtol=1e-6, atol=1e-12):
        return [f"n={n}: sup distance {output} != reference {mp.nstr(want, 12)}"]
    return []


def check_ratebound(op, output):
    if isinstance(output, dict) and "error" in output:
        return [output["error"]]
    fn, a = op["fn"], op["args"]
    three_over_e = 3 / mp.e
    issues = []

    def expect(got, want, what, rtol=1e-8):
        if not _close(got, want, rtol=rtol, atol=1e-300):
            issues.append(f"{fn}{tuple(a)}: {what} {got} != reference {mp.nstr(want, 17)}")

    if fn == "sup_power_diff":
        value, argmax = output
        expect(value, ref.power_gap_sup(a[0], mp.mpf(a[1]) - mp.mpf(a[0])), "value")
        u = mp.mpf(argmax)
        expect(value, abs(u ** a[0] - u ** a[1]), "value at the argmax")
    elif fn == "movingmax_s":
        n, k = a
        expect(output, ref.power_gap_sup(mp.mpf(1) / (k + 1), mp.mpf(k) / (n * (k + 1))), "s(n)")
    elif fn == "cuadras_auge_sup":
        n, th = a[0], mp.mpf(a[1])
        exact, bound = output
        expect(exact, ref.power_gap_sup((1 - (1 - th) ** n) / th, (1 - th) ** n / th), "exact")
        expect(bound, three_over_e * (1 - th) ** n, "bound")
        if exact > bound:
            issues.append(f"{fn}{tuple(a)}: exact above bound")
    elif fn == "composite_rate_bound":
        beta, s, K, kappa, r = a
        ceiling = 0 if float(r).is_integer() else three_over_e / mp.mpf(r)
        expect(output["bound"], K * (beta + ceiling) ** kappa + s, "bound")
        expect(output["ceiling_term"], ceiling, "ceiling term")
    elif fn == "ceil_power_cdf_bound":
        r = mp.mpf(a[0])
        expect(output, three_over_e / r, "value")
        if mp.ceil(r) != r and output < ref.power_gap_sup(r, mp.ceil(r) - r):
            issues.append(f"{fn}{tuple(a)}: below sup |u^ceil(r) - u^r|")
    elif fn == "ceil_rate_bound":
        r = mp.mpf(a[0])
        expect(output, three_over_e / mp.ceil(r), "value")
        if mp.ceil(r) != r and output < ref.power_gap_sup(r / mp.ceil(r), (mp.ceil(r) - r) / mp.ceil(r)):
            issues.append(f"{fn}{tuple(a)}: below sup |u - u^(r/ceil r)|")
    return issues


def check_mixing_scalar(op, output):
    if isinstance(output, dict):
        return [output["error"]]
    return _mixing_issue(ref.family(op["family"]), op["n"], op["t1"], op["t2"], op["v"], output)


def problems(op, output, first_outputs) -> list[str]:
    kind = op["check"]["kind"]
    if kind == "converge":
        return check_converge(op, output, first_outputs)
    return {
        "diagonal": check_diagonal,
        "distortion": check_distortion,
        "bound": check_bound,
        "mixing": check_mixing,
        "mc_diag": check_mc,
        "berman": check_mc,
        "paths": check_mc,
        "sup": check_sup,
        "ratebound": check_ratebound,
        "mixing_scalar": check_mixing_scalar,
    }[kind](op, output)
