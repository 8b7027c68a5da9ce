"""Command-line interface.

Subcommands cover the whole workflow: ``gen`` (synthetic corpora),
``stats`` (discontinuity distribution), ``convert`` (graphs to trees),
``train``, ``parse``, ``restore`` (trees back to graphs with predicted
remotes) and ``eval``.  Errors exit nonzero and print a JSON object
``{"error": {"type": ..., "message": ...}}`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Sequence

import numpy as np

from .conversion import ConversionError, graph_to_tree, tree_from_sexpr, tree_to_sexpr
from .evaluation import report_json, score_corpus
from .generator import SyntheticSpec, generate
from .graph_model import (
    ConstituentTree,
    Token,
    UccaGraph,
    atomic_output,
    dump_corpus,
    load_corpus,
    load_jsonl,
    load_lines,
    load_token_lines,
)
from .neural_core import ModelParams, check_external
from .stats import discontinuity_stats
from .training import TrainConfig, encode_sentence, parse_pipeline, restore_graph, train


class CliError(Exception):
    """A user-facing failure (bad arguments, malformed input, ...)."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _load_external(
    paths: Sequence[str], sentences: Sequence[Sequence[Token]], what: str, width: int = 0
) -> tuple[list[np.ndarray], int]:
    """The per-token feature matrices in ``paths``, one per sentence in
    order, and their width; each is checked before any work is done."""

    def vectors(record: dict) -> np.ndarray:
        return np.asarray(record["vectors"], dtype=np.float64)

    loaded = [load_jsonl(path, vectors, "external feature") for path in paths]
    matrices = [matrix for records in loaded for matrix in records]
    if len(matrices) != len(sentences):
        raise CliError(f"{len(matrices)} external feature records for {len(sentences)} {what}")
    for path, records in zip(paths, loaded):
        width = check_external(records, sentences, path, width)
        sentences = sentences[len(records) :]
    return matrices, width


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = SyntheticSpec()
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
        known = {f.name for f in dataclasses.fields(SyntheticSpec)}
        unknown = set(data) - known
        if unknown:
            raise CliError(f"unknown generator spec keys: {sorted(unknown)}")
        if "labels" in data:
            data["labels"] = tuple(data["labels"])
        spec = SyntheticSpec(**data)
    graphs = generate(spec, seed=args.seed, lang=args.lang)
    dump_corpus(graphs, args.out)
    print(f"wrote {len(graphs)} graphs to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graphs = load_corpus(args.infile)
    table = discontinuity_stats(graphs)
    print(json.dumps(table, sort_keys=True, indent=2))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    graphs = load_corpus(args.infile)
    lossy = 0
    dropped = 0
    with atomic_output(args.out) as fh:
        for r, g in enumerate(graphs, start=1):
            result = graph_to_tree(g)
            lossy += result.lossy_moves
            dropped += len(result.dropped_remote_edges)
            if args.format == "sexpr":
                fh.write(tree_to_sexpr(result.tree) + "\n")
                continue
            try:  # the JSONL form nests two JSON levels per tree level
                line = json.dumps(result.tree.to_json(), sort_keys=True)
            except RecursionError:
                raise CliError(
                    f"{args.infile}: record {r}: tree too deep for JSONL; use --format sexpr"
                ) from None
            fh.write(line + "\n")
    print(
        f"converted {len(graphs)} graphs to {args.out} "
        f"({dropped} remote edges dropped, {lossy} lossy moves)"
    )
    return 0


def _read_trees(path: str, fmt: str, lang: str) -> list[ConstituentTree]:
    def decode(line: str) -> ConstituentTree:
        if fmt == "sexpr":
            return tree_from_sexpr(line, lang=lang)
        return ConstituentTree.from_json(json.loads(line))

    try:
        return load_lines(path, decode, "tree")
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_restore(args: argparse.Namespace) -> int:
    params = ModelParams.load(args.remotes_model)
    trees = _read_trees(args.infile, args.format, args.lang)
    restored = []
    for r, tree in enumerate(trees, start=1):
        bound, enc = encode_sentence(tree.tokens, params)
        try:
            restored.append(restore_graph(tree, enc, bound))
        except ConversionError as exc:
            raise CliError(f"{args.infile}: record {r}: {exc}") from exc
    dump_corpus(restored, args.out)
    print(f"restored {len(restored)} graphs to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = TrainConfig.from_json(json.load(fh))
    if args.seed is not None:
        config.seed = args.seed
    train_graphs: list[UccaGraph] = []
    for path in args.train:
        train_graphs.extend(load_corpus(path))
    dev_graphs = load_corpus(args.dev)
    external_train = external_dev = None
    width = 0
    if args.external_features:
        sentences = [g.tokens for g in train_graphs]
        external_train, width = _load_external(args.external_features, sentences, "training sentences")
    if args.dev_external_features:
        paths, sentences = [args.dev_external_features], [g.tokens for g in dev_graphs]
        external_dev, _ = _load_external(paths, sentences, "dev sentences", width)
    result = train(
        train_graphs,
        dev_graphs,
        config,
        external_train=external_train,
        external_dev=external_dev,
    )
    result.params.save(args.out)
    print(
        f"trained for {result.epochs_run} epochs; "
        f"best dev F1 {result.best_f1:.4f} at epoch {result.best_epoch}; "
        f"checkpoint written to {args.out}"
    )
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    params = ModelParams.load(args.model)
    sentences = load_token_lines(args.infile)
    external = None
    if args.external_features:
        paths, width = [args.external_features], params.config.external_dim
        external, _ = _load_external(paths, sentences, "sentences", width)
    parsed = []
    for k, tokens in enumerate(sentences):
        ext = external[k] if external is not None else None
        parsed.append(parse_pipeline(tokens, params, external=ext))
    dump_corpus(parsed, args.out)
    print(f"parsed {len(parsed)} sentences to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gold = load_corpus(args.gold)
    pred = load_corpus(args.pred)
    report = score_corpus(gold, pred)
    print(report_json(report))
    if args.tsv:
        with atomic_output(args.tsv) as fh:
            fh.write(report.to_tsv() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="ucca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--spec", help="JSON file with generator settings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lang", default="en")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="discontinuity distribution of a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("convert", help="convert graphs to constituent trees")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["sexpr", "jsonl"], default="sexpr")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("restore", help="restore graphs from trees, predicting remotes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--remotes-model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["sexpr", "jsonl"], default="sexpr")
    p.add_argument("--lang", default="", help="language of sexpr trees, which carry none")
    p.set_defaults(func=_cmd_restore)

    p = sub.add_parser("train", help="train a parser and remote classifier jointly")
    p.add_argument("--train", action="append", required=True, help="training corpus JSONL (repeatable)")
    p.add_argument("--dev", required=True)
    p.add_argument("--config", help="JSON file with TrainConfig overrides")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--external-features",
        action="append",
        help="JSONL with per-token vectors, aligned with --train (repeatable)",
    )
    p.add_argument("--dev-external-features")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("parse", help="parse token sequences into graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True, help="JSONL with tokens (edges ignored)")
    p.add_argument("--external-features")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="score predicted graphs against gold graphs")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--tsv", help="also write a one-line TSV to this path")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``ucca stats ... | head``).  Point
        # stdout at devnull so the flush at exit cannot fail again, and exit
        # with the status of a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # noqa: BLE001 - single reporting point
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
