"""Operator command line: bootstrap a deployment, run nodes, talk to them.

Exit codes are a stable contract: 0 success, 1 a check or request that came
back negative (scenario failure, rejected transaction, refused redemption),
2 usage or configuration problems.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import scenarios
from .blocks import GenesisConfig
from .contracts import ContractRuntime
from .crypto import CryptoError, KeyPair, Provider, load_keypair, save_keypair
from .engine import (
    GRANT_THRESHOLD,
    SyntheticPolicy,
    TrainConfig,
    format_rules,
    forward,
    generate_dataset,
    init_model,
    load_model,
    parse_rules,
    save_model,
    train,
)
from .network.live import LiveNode, service_call
from .network.nodes import StorageCore, ValidatorCore
from .service import ENV_DATA_DIR, ServiceConfig
from .storage import open_link_ciphertext
from .transactions import (
    OPERATION_NAMES,
    RequestInfo,
    TransactionError,
    build_access_request_tx,
    build_register_user_tx,
    encode_transaction,
    operation_index,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

DEFAULT_DATA_DIR = "chainacl-data"
DEFAULT_NODE = "127.0.0.1:9101"


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


class Refused(Exception):
    """The node answered and refused the request; maps to exit code 1."""


def _data_dir(arg: str | None) -> Path:
    return Path(arg or os.environ.get(ENV_DATA_DIR) or DEFAULT_DATA_DIR)


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise CliError(f"expected host:port, got {text!r}")
    return host, int(port)


def _parse_operation(text: str) -> int:
    try:
        return operation_index(text)
    except TransactionError:
        pass
    if text.isdigit() and int(text) < len(OPERATION_NAMES):
        return int(text)
    raise CliError(f"unknown operation {text!r}; expected one of {OPERATION_NAMES}")


def _read_keypair(path: str) -> KeyPair:
    base = Path(path)
    if base.suffix in (".sk", ".pk"):
        base = base.with_suffix("")
    if not base.with_suffix(".sk").is_file():
        raise CliError(f"no key files for {path!r} (expected {base}.sk / {base}.pk)")
    return load_keypair(base.parent, base.name)


def _call(addr_text: str, request: dict) -> dict:
    """The node's reply to ``request``; a refusal raises ``Refused``."""
    try:
        reply = service_call(_parse_addr(addr_text), request)
    except OSError as exc:
        raise CliError(f"cannot reach node at {addr_text}: {exc}") from None
    if not reply.get("ok"):
        raise Refused(f"error={reply.get('error', '?')} {reply.get('reason', '')}".strip())
    return reply


def _request(op: str, **fields) -> dict:
    """A service request carrying the optional fields that were given."""
    return {"op": op, **{key: value for key, value in fields.items() if value is not None}}


# -- init ------------------------------------------------------------------------


def cmd_init(args) -> int:
    directory = _data_dir(args.dir)
    if directory.exists() and any(directory.iterdir()) and not args.force:
        raise CliError(f"{directory} is not empty; pass --force to overwrite")

    print(f"building fixtures (seed={args.seed}, users={args.users}, resources={args.resources})")
    fx = scenarios.build_fixtures(args.seed, args.users, args.resources)  # before anything is written
    print(
        f"model trained: train_acc={fx.train_accuracy:.4f} holdout_acc={fx.holdout_accuracy:.4f}"
    )
    (directory / "keys").mkdir(parents=True, exist_ok=True)
    (directory / "resources").mkdir(parents=True, exist_ok=True)

    keys = directory / "keys"
    save_keypair(keys, "admin", fx.admin)
    save_keypair(keys, "s0", fx.storage)
    for i, kp in enumerate(fx.validators):
        save_keypair(keys, f"v{i}", kp)
    for i, kp in enumerate(fx.users):
        save_keypair(keys, f"u{i:03d}", kp)

    (directory / "genesis.bin").write_bytes(fx.config.encode())
    save_model(fx.model, directory / "model.bin")
    (directory / "rules.txt").write_text(format_rules(fx.rules))
    for rid in range(args.resources):
        (directory / "resources" / f"{rid}.bin").write_bytes(fx.payload(rid))

    all_nodes = [(f"v{i}", args.host, args.base_port + 1 + i) for i in range(3)]
    all_nodes.append(("s0", args.host, args.base_port + 10))
    for name, host, port in all_nodes:
        validator = name != "s0"
        config = ServiceConfig(
            name=name,
            role="validator" if validator else "storage",
            host=host,
            port=port,
            key_file=str(keys / f"{name}.sk"),
            genesis_file=str(directory / "genesis.bin"),
            data_dir=str(directory),
            storage_node="s0",
            model_file=str(directory / "model.bin") if validator else "",
            rules_file=str(directory / "rules.txt") if validator else "",
            peers=tuple(node for node in all_nodes if node[0] != name),
        )
        (directory / f"{name}.cfg").write_text(config.format())

    print(f"wrote {directory}/: keys/ ({3 + 2 + args.users} keypairs), genesis.bin,")
    print("  model.bin, rules.txt, resources/, and node configs v0-v2.cfg, s0.cfg")
    return EXIT_OK


# -- node ------------------------------------------------------------------------


def _build_core(cfg: ServiceConfig):
    keypair = _read_keypair(cfg.key_file)
    genesis = GenesisConfig.decode(Path(cfg.genesis_file).read_bytes())
    peer_names = [p[0] for p in cfg.peers]
    validator_names = tuple(
        sorted(n for n in peer_names + [cfg.name] if n != cfg.storage_node)
    )
    if cfg.role == "validator":
        model = load_model(cfg.model_file)
        rules = parse_rules(Path(cfg.rules_file).read_text())
        runtime = ContractRuntime(model, rules)
        return ValidatorCore(
            name=cfg.name,
            keypair=keypair,
            config=genesis,
            runtime=runtime,
            provider=Provider(),
            validator_names=validator_names,
            storage_name=cfg.storage_node,
        )
    core = StorageCore(
        name=cfg.name,
        keypair=keypair,
        config=genesis,
        provider=Provider(),
        validator_names=validator_names,
    )
    resources = Path(cfg.data_dir) / "resources" if cfg.data_dir else None
    if resources and resources.is_dir():
        for path in sorted(resources.glob("*.bin")):
            if path.stem.isdigit():
                core.service.put_resource(int(path.stem), path.read_bytes())
    return core


def cmd_node_start(args) -> int:
    try:
        cfg = ServiceConfig.load(args.config)
        cfg.require_files()
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    if args.port:
        from dataclasses import replace

        cfg = replace(cfg, port=args.port)
    if args.role and args.role != cfg.role:
        raise CliError(f"config says role={cfg.role}, command line says {args.role}")

    core = _build_core(cfg)
    peers = {p[0]: (p[1], p[2]) for p in cfg.peers}
    node = LiveNode(cfg.name, core, cfg.host, cfg.port, peers)
    node.start()
    print(f"{cfg.role} {cfg.name} listening on {cfg.host}:{cfg.port}")
    try:
        if args.run_seconds is not None:
            time.sleep(args.run_seconds)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        node.stop()
        print(f"{cfg.name} stopped")
    return EXIT_OK


# -- client verbs ------------------------------------------------------------------


def cmd_register_user(args) -> int:
    admin = _read_keypair(args.admin_key)
    if args.user_pk:
        user_pk = bytes.fromhex(args.user_pk)
    elif args.user_key:
        user_pk = _read_keypair(args.user_key).public_key
    else:
        raise CliError("pass --user-pk HEX or --user-key PATH")
    tx = build_register_user_tx(Provider(), admin, user_pk, time=int(time.time()))
    reply = _call(args.node, {"op": "submit_tx", "tx": encode_transaction(tx).hex()})
    print(f"submitted tx_id={reply['tx_id']}")
    return EXIT_OK


def cmd_request_access(args) -> int:
    user = _read_keypair(args.user_key)
    operation = _parse_operation(args.op)
    request_id = os.urandom(16)
    info = RequestInfo(
        resource_id=args.resource, operation=operation, request_id=request_id
    )
    tx = build_access_request_tx(Provider(), user, info, time=int(time.time()))
    _call(args.node, {"op": "submit_tx", "tx": encode_transaction(tx).hex()})
    print(f"request_id={request_id.hex()}")
    return EXIT_OK


def cmd_poll(args) -> int:
    reply = _call(args.node, {"op": "poll", "request_id": args.request_id})
    status = reply["status"]
    line = f"status={status}"
    if reply.get("reason"):
        line += f" reason={reply['reason']}"
    print(line)
    if reply.get("access_list") is not None:
        ops = ",".join(
            f"{OPERATION_NAMES[i]}={'y' if g else 'n'}"
            for i, g in enumerate(reply["access_list"])
        )
        print(f"access_list: {ops}")
    if reply.get("link_ciphertext") and args.user_key:
        user = _read_keypair(args.user_key)
        grant = open_link_ciphertext(
            Provider(), user, bytes.fromhex(reply["link_ciphertext"])
        )
        print(f"link_token={grant.link_token.hex()}")
        print(f"nonce={grant.nonce.hex()}")
        print(f"expires_at={grant.expires_at}")
    return EXIT_OK


def cmd_redeem(args) -> int:
    operation = _parse_operation(args.op)
    reply = _call(
        args.node,
        {
            "op": "redeem",
            "token": args.token,
            "nonce": args.nonce,
            "operation": operation,
        },
    )
    payload = bytes.fromhex(reply["payload"])
    if args.out:
        Path(args.out).write_bytes(payload)
        print(f"wrote {len(payload)} bytes to {args.out}")
    else:
        print(payload.hex())
    return EXIT_OK


def cmd_logs(args) -> int:
    request = _request(
        "logs",
        user_pk=args.user_pk,
        resource_id=args.resource,
        kind=args.kind,
        decision=args.decision,
        from_height=args.from_height,
        to_height=args.to_height,
    )
    reply = _call(args.node, request)
    for e in reply["entries"]:
        decision = e["decision"] or "-"
        reason = e["reason"] or "-"
        print(
            f"h={e['height']:<4} t={e['time']:<6} {e['kind']:<13} "
            f"user={e['user_pk'][:12]} res={e['resource_id']} op={e['operation']} "
            f"decision={decision} reason={reason}"
        )
    print(f"({len(reply['entries'])} entries)")
    return EXIT_OK


def cmd_chain(args) -> int:
    reply = _call(args.node, _request("chain", from_height=args.from_height, to_height=args.to_height))
    for b in reply["blocks"]:
        print(
            f"h={b['height']:<4} time={b['time']:<6} hash={b['hash'][:16]} "
            f"validator={b['validator'][:12]} txs={len(b['txs'])}"
        )
        if args.verbose:
            for line in b["txs"]:
                print(f"    {line}")
    return EXIT_OK


# -- scenarios and model ------------------------------------------------------------


def cmd_scenario_run(args) -> int:
    fixtures = scenarios.shared_fixtures(args.seed)
    if args.name == "matrix":
        report = scenarios.run_matrix(fixtures, args.net_seed)
        print(report.text(), end="")
        return EXIT_OK if report.passed else EXIT_FAILED
    if args.name in ("suite", "all"):
        suite = scenarios.run_suite(fixtures, args.net_seed)
        print(suite.text(with_traces=args.trace), end="")
        return EXIT_OK if suite.passed else EXIT_FAILED
    try:
        script = scenarios.standard_scenario(args.name, fixtures, args.net_seed)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from None
    report = scenarios.run_scenario(script, fixtures)
    print(report.text(with_trace=args.trace), end="")
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_model_train(args) -> int:
    policy = SyntheticPolicy(seed=args.seed)
    dataset = generate_dataset(policy, args.users, args.resources)
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    report = train(init_model(seed=args.seed), dataset, config)
    print(
        f"epochs={args.epochs} train_acc={report.final_train_accuracy:.4f} "
        f"holdout_acc={report.final_holdout_accuracy:.4f}"
    )
    if args.out:
        save_model(report.model, args.out)
        size = Path(args.out).stat().st_size
        print(f"saved {args.out} ({size} bytes)")
    return EXIT_OK


def cmd_model_eval(args) -> int:
    model = load_model(args.model)
    policy = SyntheticPolicy(seed=args.seed)
    dataset = generate_dataset(policy, args.users, args.resources)
    scores = forward(model, dataset.inputs)
    grants = scores >= GRANT_THRESHOLD
    truth = dataset.labels >= 0.5
    overall = float((grants == truth).mean())
    print(f"cells={grants.size} accuracy={overall:.4f}")
    for op in range(grants.shape[1]):
        acc = float((grants[:, op] == truth[:, op]).mean())
        print(f"  {OPERATION_NAMES[op]}: {acc:.4f}")
    return EXIT_OK


# -- wiring -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainacl",
        description="Permissioned access-control chain: deploy, drive, and test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="generate keys, genesis, model, rules, node configs")
    p.add_argument("--dir", help=f"target directory (default {DEFAULT_DATA_DIR})")
    p.add_argument("--seed", type=int, default=scenarios.FIXTURE_SEED)
    p.add_argument("--users", type=int, default=scenarios.N_USERS)
    p.add_argument("--resources", type=int, default=scenarios.N_RESOURCES)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--base-port", type=int, default=9100)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_init)

    p_node = sub.add_parser("node", help="run a live node")
    node_sub = p_node.add_subparsers(dest="node_command", required=True)
    p = node_sub.add_parser("start", help="start serving from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--role", choices=("validator", "storage"))
    p.add_argument("--port", type=int)
    p.add_argument("--run-seconds", type=float, help="exit after this long (default: run forever)")
    p.set_defaults(fn=cmd_node_start)

    p = sub.add_parser("register-user", help="submit a registration for a user key")
    p.add_argument("--admin-key", required=True)
    p.add_argument("--user-pk")
    p.add_argument("--user-key")
    p.add_argument("--node", default=DEFAULT_NODE)
    p.set_defaults(fn=cmd_register_user)

    p = sub.add_parser("request-access", help="sign and submit an access request")
    p.add_argument("--user-key", required=True)
    p.add_argument("--resource", type=int, required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--node", default=DEFAULT_NODE)
    p.set_defaults(fn=cmd_request_access)

    p = sub.add_parser("poll", help="check a request; decrypts the link when granted")
    p.add_argument("--request-id", required=True)
    p.add_argument("--user-key")
    p.add_argument("--node", default=DEFAULT_NODE)
    p.set_defaults(fn=cmd_poll)

    p = sub.add_parser("redeem", help="spend a link at the storage node")
    p.add_argument("--token", required=True)
    p.add_argument("--nonce", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--node", default="127.0.0.1:9110")
    p.add_argument("--out", help="write the payload to a file instead of stdout")
    p.set_defaults(fn=cmd_redeem)

    p = sub.add_parser("logs", help="query the on-chain access log")
    p.add_argument("--user-pk")
    p.add_argument("--resource", type=int)
    p.add_argument("--kind")
    p.add_argument("--decision")
    p.add_argument("--from-height", type=int)
    p.add_argument("--to-height", type=int)
    p.add_argument("--node", default=DEFAULT_NODE)
    p.set_defaults(fn=cmd_logs)

    p = sub.add_parser("chain", help="list blocks")
    p.add_argument("--from-height", type=int)
    p.add_argument("--to-height", type=int)
    p.add_argument("--verbose", "-v", action="store_true")
    p.add_argument("--node", default=DEFAULT_NODE)
    p.set_defaults(fn=cmd_chain)

    p_scenario = sub.add_parser("scenario", help="run scripted end-to-end checks")
    scenario_sub = p_scenario.add_subparsers(dest="scenario_command", required=True)
    p = scenario_sub.add_parser("run", help="run one scenario, the matrix, or the suite")
    p.add_argument(
        "name",
        help=f"one of {', '.join(scenarios.SCENARIO_NAMES)}, matrix, or suite",
    )
    p.add_argument("--seed", type=int, default=scenarios.FIXTURE_SEED, help="fixture seed")
    p.add_argument("--net-seed", type=int, default=0, help="network randomness seed")
    p.add_argument("--trace", action="store_true", help="print the full event trace")
    p.set_defaults(fn=cmd_scenario_run)

    p_model = sub.add_parser("model", help="train or evaluate the scoring model")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p = model_sub.add_parser("train", help="train on the synthetic policy")
    p.add_argument("--seed", type=int, default=scenarios.FIXTURE_SEED)
    p.add_argument("--users", type=int, default=scenarios.N_USERS)
    p.add_argument("--resources", type=int, default=scenarios.N_RESOURCES)
    p.add_argument("--epochs", type=int, default=TrainConfig().epochs)
    p.add_argument("--lr", type=float, default=TrainConfig().learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig().batch_size)
    p.add_argument("--out", help="write the trained model here")
    p.set_defaults(fn=cmd_model_train)
    p = model_sub.add_parser("eval", help="score a saved model against the policy oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=scenarios.FIXTURE_SEED)
    p.add_argument("--users", type=int, default=scenarios.N_USERS)
    p.add_argument("--resources", type=int, default=scenarios.N_RESOURCES)
    p.set_defaults(fn=cmd_model_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Refused as exc:
        print(exc)
        return EXIT_FAILED
    except (CliError, CryptoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(argv=None))
