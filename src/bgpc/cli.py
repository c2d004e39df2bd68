"""Command-line surface.

Exit codes: 0 success, 1 input error, 2 not-certified / ambiguous verdict,
3 feasibility or enumeration-budget refusal. The environment variable
BGPC_TOL overrides the default rank tolerance for all subcommands; in
recovery it cuts the reduced gamma system, never rank(A).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import certify, construct, experiment, model, serialize
from .recover import UNIQUE as RECOVERY_UNIQUE
from .recover import recover as run_recovery
from .recover import recover_joint_sparse as run_recovery_sparse
from .errors import (BudgetExceededError, DimensionError,
                     InconsistentSystemError, InfeasibleConstructionError)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
EXIT_REFUSED = 3


def _tol_from_env(args_tol):
    if args_tol is not None:
        return args_tol
    env = os.environ.get("BGPC_TOL")
    if not env:
        return None
    try:
        return float(env)
    except ValueError:
        raise ValueError(f"BGPC_TOL must be a number, got {env!r}") from None


def _cmd_gen(args) -> int:
    inst = model.random_instance(args.n, args.m, args.N, args.seed,
                                 sparsity=args.s)
    serialize.dump_json(serialize.instance_to_dict(inst), args.out)
    if args.y_out:
        serialize.dump_json(serialize.matrix_to_dict(model.forward(inst)),
                            args.y_out)
    if args.a_out:
        serialize.dump_json(serialize.matrix_to_dict(inst.A), args.a_out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    inst = serialize.instance_from_dict(serialize.load_json(args.instance))
    if args.command == "certify":
        rep = certify.certify_subspace(inst.A, inst.X0, inst.lambda0,
                                       tol=_tol_from_env(args.tol))
        detail = f"rank {rep.stacked_rank}/{rep.required_rank}"
    else:
        s = args.s if args.s is not None else inst.s
        if s is None:
            raise ValueError("instance has no support field; pass --s")
        rep = certify.certify_joint_sparse(inst.A, inst.X0, inst.lambda0, s,
                                           tol=_tol_from_env(args.tol),
                                           max_cells=args.max_cells)
        detail = f"{rep.support_cells_checked} support cells checked"
    if args.out:
        serialize.dump_json(serialize.report_to_dict(rep), args.out)
    print(f"{rep.mode}: {rep.verdict} ({detail})")
    return EXIT_OK if rep.verdict == certify.IDENTIFIABLE else EXIT_NOT_CERTIFIED


def _cmd_construct(args) -> int:
    ci = construct.construct_claim1(args.n, args.m, args.N)
    serialize.dump_json(serialize.constructed_to_dict(ci), args.out)
    cols = ",".join(map(str, serialize._one_based(ci.selected_cols)))
    print(f"selected DFT columns: {cols}; "
          f"expected left null dim {ci.expected_left_null_dim}")
    return EXIT_OK


def _cmd_verify_construct(args) -> int:
    ci = serialize.constructed_from_dict(serialize.load_json(args.input))
    rec = construct.verify_claim1_rank(ci, tol=_tol_from_env(args.tol))
    if args.out:
        serialize.dump_json(serialize.verification_to_dict(rec), args.out)
    print(f"stacked rank {rec.stacked_rank}, D rank {rec.D_rank}, "
          f"left null dim {rec.left_null_dim} "
          f"(expected {rec.expected_left_null_dim}): "
          f"{'pass' if rec.passed else 'FAIL'}")
    return EXIT_OK if rec.passed else EXIT_NOT_CERTIFIED


def _load_truth(path, Y, A):
    """The --truth instance, checked against (Y, A) before any solving."""
    inst = serialize.instance_from_dict(serialize.load_json(path)) if path else None
    if inst is not None and (inst.n, inst.m, inst.N) != (*A.shape, Y.shape[1]):
        raise DimensionError(
            f"truth {path}: instance (n, m, N) {(inst.n, inst.m, inst.N)} "
            f"differs from (Y, A)'s {(*A.shape, Y.shape[1])}")
    return inst


def _cmd_recover(args) -> int:
    Y = serialize.matrix_from_dict(serialize.load_json(args.Y), "Y")
    A = serialize.matrix_from_dict(serialize.load_json(args.A), "A")
    truth = _load_truth(args.truth, Y, A)
    tol = _tol_from_env(args.tol)
    if args.command == "recover":
        res = run_recovery(Y, A, tol=tol)
        detail = f" (null dim {res.null_dim})"
    else:
        res = run_recovery_sparse(Y, A, args.s, tol=tol, max_cells=args.max_cells)
        support = serialize._one_based(res.support)
        detail = "" if support is None else " support " + ",".join(map(str, support))
    if args.out:
        serialize.dump_json(serialize.recovery_to_dict(res), args.out)
    print(f"recovery: {res.status}{detail}")
    if res.status == RECOVERY_UNIQUE and truth is not None:
        ax = model.align_scale(res.X, truth.X0)
        al = model.align_scale(res.lam[:, None], truth.lambda0[:, None])
        print(f"relative error: X {ax.relative_error:.3e}, "
              f"lambda {al.relative_error:.3e}")
    return EXIT_OK if res.status == RECOVERY_UNIQUE else EXIT_NOT_CERTIFIED


def _cmd_sweep(args) -> int:
    cfg = experiment.config_from_dict(serialize.load_json(args.config))
    env_tol = _tol_from_env(None)
    if env_tol is not None and cfg.tolerance is None:
        cfg.tolerance = env_tol
    cells = experiment.run_sweep(cfg)
    experiment.write_csv(cells, args.csv)
    if args.json:
        experiment.write_json(cells, args.json)
    ran = sum(1 for c in cells if not c.skipped_reason)
    print(f"{len(cells)} cells ({ran} run, {len(cells) - ran} skipped) "
          f"-> {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bgpc",
        description="Blind gain and phase calibration: identifiability "
                    "certificates, explicit constructions, null-space "
                    "recovery, and phase-transition sweeps.")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: sweeps run serially")
    sub = p.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, each defined once
    build = argparse.ArgumentParser(add_help=False)
    for flag in ("--n", "--m", "--N"):
        build.add_argument(flag, type=int, required=True)
    build.add_argument("--out", required=True)
    tol_out = argparse.ArgumentParser(add_help=False)
    tol_out.add_argument("--tol", type=float, default=None)
    tol_out.add_argument("--out", default=None)
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument("--max-cells", type=int, default=model.DEFAULT_CELL_BUDGET)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--Y", required=True)
    data.add_argument("--A", required=True)
    data.add_argument("--truth", default=None,
                      help="instance file to report alignment errors against")

    g = sub.add_parser("gen", parents=[build],
                       help="generate a seeded random instance")
    g.add_argument("--s", type=int, default=None,
                   help="row sparsity (enables joint-sparse mode)")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--y-out", default=None,
                   help="also write the forward measurements as a matrix file")
    g.add_argument("--a-out", default=None,
                   help="also write the dictionary as a matrix file")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("certify", parents=[instance, tol_out],
                       help="run the subspace-model certificate")
    c.set_defaults(func=_cmd_certify)

    cs = sub.add_parser("certify-sparse", parents=[instance, tol_out, cells],
                        help="run the joint-sparsity certificate")
    cs.add_argument("--s", type=int, default=None)
    cs.set_defaults(func=_cmd_certify)

    co = sub.add_parser("construct", parents=[build],
                        help="build the explicit DFT-column instance")
    co.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify-construct", parents=[tol_out],
                       help="verify the exact ranks of a constructed instance")
    v.add_argument("--in", dest="input", required=True)
    v.set_defaults(func=_cmd_verify_construct)

    r = sub.add_parser("recover", parents=[data, tol_out],
                       help="null-space recovery from (Y, A)")
    r.set_defaults(func=_cmd_recover)

    rs = sub.add_parser("recover-sparse", parents=[data, tol_out, cells],
                        help="joint-sparse recovery with support search")
    rs.add_argument("--s", type=int, required=True)
    rs.set_defaults(func=_cmd_recover)

    sw = sub.add_parser("sweep", help="run a phase-transition sweep")
    sw.add_argument("--config", required=True)
    sw.add_argument("--csv", required=True)
    sw.add_argument("--json", default=None)
    sw.set_defaults(func=_cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (BudgetExceededError, InfeasibleConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, InconsistentSystemError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
