"""Command-line surface: one executable, one subcommand per pipeline stage.

Every file-writing run leaves a ``<output>.manifest.json`` next to its
primary output recording the command, the subcommand's options, seed,
and SHA-256 digests of all inputs and outputs, read from disk once the
run's handler has returned, so reruns can be checked for byte-identical
behavior. Exit codes: 0 success, 1 validation or IO error (diagnostics
name the offending file/document/index), 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

# Every command reads or writes through corpus; each handler imports the
# stage module it runs, so a step loads only the layers it uses.
from . import corpus as corpus_io
from .fileio import checked_paths, manifest_path


class RunManifest(NamedTuple):
    """Reproducibility record for one CLI run; ``write`` serializes its
    fields. Each digest is ``_sha256`` of a file as it is on disk after
    the handler returned."""

    command: str
    config: dict[str, str]
    seed: int | None
    input_digests: dict[str, str]
    output_digests: dict[str, str]

    def write(self, path: str | Path) -> None:
        text = json.dumps(self._asdict(), indent=2, sort_keys=True, ensure_ascii=False)
        corpus_io.write_text(path, [text + "\n"])


def _sha256(path: str | Path) -> str:
    """SHA-256 of a file, read in 64 KiB blocks to bound memory: the one
    hash of the manifest, called only once the handler has returned."""
    import hashlib  # maps OpenSSL's libcrypto: not while the handler's data is alive

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# The options that name files, by argparse dest: dispatch checks their paths
# before a handler opens anything, and the manifest hashes the inputs.
_READS = {"input", "src", "tgt", "align_scores", "hyp", "ref", "labels", "x", "y",
          "instances", "scores", "files"}
_WRITES = {"out", "report", "src_out", "tgt_out", "perm_out"}
# What a handler returns: the paths it wrote, in output order, or a falsy
# value when it writes no file, and so no manifest.
_Outputs = list[str] | None


def _options(args: argparse.Namespace):
    """``(flag, dest, values)`` of each option of the subcommand that is set,
    in parser order: ``flag`` is the first long flag, or a positional's dest,
    and ``values`` a list, of one value unless the option takes several."""
    for action in args.actions:
        value = getattr(args, action.dest, None)
        if value is not None:
            flags = [f for f in action.option_strings if f.startswith("--")]
            values = value if isinstance(value, list) else [value]
            yield (flags[0] if flags else action.dest), action.dest, values


def _paths(args: argparse.Namespace, dests: set[str]) -> list[tuple[str, str]]:
    """``(flag, path)`` of each path of the set options in ``dests``."""
    return [(flag, p) for flag, dest, ps in _options(args) if dest in dests for p in ps]


def _print_counts(reports: Sequence) -> None:
    """Print each report as ``name = value (numerator/denominator)``."""
    for report in reports:
        print(f"{report.name} = {report.value:.1f} ({report.numerator}/{report.denominator})")


def _cmd_convert(args: argparse.Namespace) -> _Outputs:
    used = (
        {"to", "src", "tgt", "out"} if args.to == "records"
        else {"to", "input", "src_out", "tgt_out"}
    )
    for flag, dest, _ in _options(args):
        if dest not in used:
            raise ValueError(f"convert --to {args.to} does not use {flag}")
    if args.to == "records":
        if not (args.src and args.tgt and args.out):
            raise ValueError("convert --to records needs --src, --tgt, and --out")
        corpus_io.write_records(corpus_io.read_doc_text(args.src, args.tgt), args.out)
        return [args.out]
    if not (args.input and args.src_out and args.tgt_out):
        raise ValueError("convert --to doc-text needs --in, --src-out, and --tgt-out")
    corpus_io.write_doc_text(corpus_io.read_records(args.input), args.src_out, args.tgt_out)
    return [args.src_out, args.tgt_out]


def _cmd_clean(args: argparse.Namespace) -> _Outputs:
    from . import pipeline
    metadata, documents = corpus_io.read_record_stream(args.input)
    report = pipeline.CleanReport()
    cleaned = pipeline.clean_records(
        documents,
        report,
        dedup=args.dedup,
        segment=args.segment,
        punct_filler=args.fix_punct,
        scores=(
            (lambda: pipeline.read_score_table(args.align_scores))
            if args.align_scores
            else None
        ),
        threshold=args.align_threshold,
    )

    def cleaned_then_report():
        yield from cleaned
        # --out replaces its file only after this returns: a failure leaves neither.
        if args.report:
            corpus_io.write_jsonl(args.report, report.records())

    kept = corpus_io.write_record_stream(args.out, metadata, cleaned_then_report())
    removed = [
        len(report.removed_duplicates),
        len(report.removed_unaligned),
        len(report.removed_misaligned),
    ]
    print(
        f"kept {kept} of {kept + sum(removed)} documents "
        f"({removed[0]} duplicate, {removed[1]} unaligned, {removed[2]} misaligned)"
    )
    return list(filter(None, [args.out, args.report]))


def _cmd_mr_split(args: argparse.Namespace) -> _Outputs:
    from . import mrsplit
    metadata, documents = corpus_io.read_record_stream(args.input)
    cfg = mrsplit.MRConfig(
        include_singletons=not args.no_singletons, joiner=args.joiner
    )
    tally = mrsplit.MRTally()
    segments = mrsplit.mr_records(documents, cfg, tally)
    written = corpus_io.write_record_stream(args.out, metadata, segments)
    ratio = tally.ratio if written else float("nan")
    print(f"wrote {written} segment pairs (token ratio {ratio:.2f})")
    return [args.out]


def _cmd_oversample(args: argparse.Namespace) -> _Outputs:
    from . import mrsplit
    metadata, documents = corpus_io.read_record_stream(args.input)
    replicas = mrsplit.oversample_records(documents, args.factor)
    written = corpus_io.write_record_stream(args.out, metadata, replicas)
    print(f"wrote {written} documents")
    return [args.out]


def _cmd_bucket(args: argparse.Namespace) -> _Outputs:
    from . import mrsplit
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b]
    except ValueError as exc:
        raise ValueError(f"--budgets: {exc}") from None
    # Each budget once: bucket_by_length reports a repeated one.
    outs = [f"{args.out_prefix}.b{budget}.jsonl" for budget in dict.fromkeys(budgets)]
    checked_paths(_paths(args, _READS), [("--out-prefix", out) for out in outs])
    buckets = mrsplit.bucket_by_length(corpus_io.read_records(args.input), budgets)
    for out, bucket in zip(outs, buckets.values()):
        corpus_io.write_records(bucket, out)
    print(f"wrote {len(outs)} buckets")
    return outs


def _cmd_bleu(args: argparse.Namespace) -> _Outputs:
    from . import metrics
    score = metrics.s_bleu if args.level == "sent" else metrics.d_bleu
    report = score(
        corpus_io.read_doc_stream(args.hyp),
        corpus_io.read_doc_stream(args.ref),
        metrics.TokenizerConfig(lowercase=not args.cased),
        args.max_n,
    )
    print(f"{report.name} = {report.value:.2f}")
    if args.out:
        metrics.write_reports([report], args.out)
        return [args.out]


def _cmd_tcp(args: argparse.Namespace) -> _Outputs:
    from . import metrics
    # The labels are read whole; the references, then the outputs, stream past.
    ref = corpus_io.read_doc_stream(args.ref)
    labeled = metrics.labeled_docs(ref, metrics.read_labels(args.labels))
    hyp = corpus_io.read_doc_stream(args.hyp)
    reports = metrics.span_metrics(hyp, labeled, metrics.SpanConfig(radius_d=args.radius))
    overall = metrics.tcp(*(r.value for r in reports))
    _print_counts(reports)
    print(f"TCP = {overall:.1f}")
    reports.append(metrics.MetricReport("TCP", overall))
    if args.out:
        metrics.write_reports(reports, args.out)
        return [args.out]


def _cmd_pearson(args: argparse.Namespace) -> None:
    from . import metrics

    def read_column(path: str) -> list[float]:
        values = []
        for lineno, raw in corpus_io.read_lines(path, "number"):
            if not raw.strip():
                continue
            try:
                value = float(raw)
            except ValueError:
                value = math.nan  # reported below, as nan and inf are
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: not a finite number on line {lineno}: {raw!r}"
                )
            values.append(value)
        return values

    value = metrics.pearson(read_column(args.x), read_column(args.y))
    print(f"pearson = {value:.4f}")


def _cmd_shuffle(args: argparse.Namespace) -> _Outputs:
    from . import harness
    metadata, documents = corpus_io.read_record_stream(args.input)
    perms = harness.Permutations()
    if args.mode == "local":
        shuffled = harness.local_shuffle_records(documents, args.seed, perms)
    else:
        again = corpus_io.read_record_stream(args.input)[1]
        shuffled = harness.global_shuffle_records(documents, again, args.seed, perms)

    def shuffled_then_permutations():
        yield from shuffled
        # --out replaces its file only after this returns: a failure leaves neither.
        harness.write_permutation_records(perms.records(), args.perm_out)

    written = corpus_io.write_record_stream(args.out, metadata, shuffled_then_permutations())
    print(f"wrote {written} documents ({args.mode} shuffle, seed {args.seed})")
    return [args.out, args.perm_out]


def _cmd_contrastive(args: argparse.Namespace) -> _Outputs:
    from . import harness, metrics
    instances = harness.read_instance_stream(args.instances)
    scores = harness.read_candidate_scores(args.scores)
    results = harness.contrastive_accuracy(instances, scores)
    reports = [results[k] for k in sorted(results)]
    _print_counts([r for r in reports if r.name != harness.OVERALL])
    _print_counts([results[harness.OVERALL]])
    if args.out:
        metrics.write_reports(reports, args.out)
        return [args.out]


def _cmd_report(args: argparse.Namespace) -> _Outputs:
    from . import metrics
    spans = metrics.SPAN_METRICS.values()
    rows = [["system", "d-BLEU", *spans, "TCP"]]
    for path in args.files:
        values = {r.name: r.value for r in metrics.read_reports(path)}
        bleu = values.get("d-BLEU")
        cells = [values[name] for name in spans if name in values]
        rows.append([
            Path(path).stem,
            "-" if bleu is None else f"{bleu:.2f}",
            *(f"{values[name]:.1f}" if name in values else "-" for name in spans),
            f"{metrics.tcp(*cells):.1f}" if len(cells) == len(spans) else "-",
        ])
    widths = [max(map(len, column)) for column in zip(*rows)]
    table = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows
    )
    print(table)
    if args.out:
        corpus_io.write_text(args.out, [table + "\n"])
        return [args.out]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docmt",
        description="Document-level MT corpus construction, cleaning, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between doc-text and records formats")
    p.add_argument("--to", choices=["records", "doc-text"], required=True)
    p.add_argument("--src", help="source-side doc-text input")
    p.add_argument("--tgt", help="target-side doc-text input")
    p.add_argument("--out", help="records output path")
    p.add_argument("--in", dest="input", help="records input path")
    p.add_argument("--src-out", help="source-side doc-text output")
    p.add_argument("--tgt-out", help="target-side doc-text output")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("clean", help="deduplicate, segment, fix punctuation, filter")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--segment", action="store_true")
    p.add_argument("--fix-punct", metavar="FILLER")
    p.add_argument("--align-scores", metavar="PATH")
    p.add_argument("--align-threshold", type=float, default=0.40)
    p.add_argument("--report", metavar="PATH", help="removal report output")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("mr-split", help="build the multi-resolution corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-singletons", action="store_true")
    p.add_argument("--joiner", default=" ")
    p.set_defaults(func=_cmd_mr_split)

    p = sub.add_parser("oversample", help="replicate every document N times")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.set_defaults(func=_cmd_oversample)

    p = sub.add_parser("bucket", help="re-cut documents under token budgets")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--budgets", required=True, help="comma-separated, strictly ascending")
    p.set_defaults(func=_cmd_bucket)

    p = sub.add_parser("bleu", help="sentence- or document-level BLEU")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--level", choices=["sent", "doc"], default="doc")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--cased", action="store_true", help="keep case distinctions")
    p.add_argument("--out", help="also write the report as records")
    p.set_defaults(func=_cmd_bleu)

    p = sub.add_parser("tcp", help="labeled-word span metrics and their TCP mean")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--radius", type=int, default=20)
    p.add_argument("--out", help="also write the reports as records")
    p.set_defaults(func=_cmd_tcp)

    p = sub.add_parser("pearson", help="correlation of two number-per-line files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_pearson)

    p = sub.add_parser("shuffle", help="seeded local or global sentence shuffle")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["local", "global"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--perm-out", help="permutation record output")
    p.set_defaults(func=_cmd_shuffle)

    p = sub.add_parser("contrastive", help="score-ranking accuracy per phenomenon")
    p.add_argument("--instances", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", help="also write the reports as records")
    p.set_defaults(func=_cmd_contrastive)

    p = sub.add_parser("report", help="consolidated metric table across systems")
    p.add_argument("files", nargs="+", help="metric record files, one per system")
    p.add_argument("--out", help="also write the table to a file")
    p.set_defaults(func=_cmd_report)

    # dispatch reads the file options and the manifest config off each
    # subcommand's own options; argparse offers no public accessor for them.
    for p in sub.choices.values():
        p.set_defaults(actions=p._actions)
    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Parse and run one invocation; returns the process exit code.

    Before the handler opens anything, ``checked_paths`` checks the paths
    of every file option. If the handler returns its outputs, the manifest
    is written beside the first, where ``checked_paths`` looks for it: its
    config keys are the long flags with ``-`` as ``_``, a list joined with
    ``,``; every input and output is hashed from disk by ``_sha256`` once
    the handler has returned and its data is freed. An ``InputError``, a
    fault that only the inputs together show, is prefixed with the paths
    of every input, in parser order: ``error: hyp.txt, ref.txt: document
    count mismatch: ...``."""
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # The parser's objects form reference cycles: free them now, for the
    # handler to reuse, rather than at some later collection. The young
    # generations hold them; a full collection would also empty the
    # interpreter's free lists, for the handler to fill again.
    gc.collect(1)
    try:
        if "perm_out" in vars(args):  # shuffle names its permutations after --out
            args.perm_out = args.perm_out or f"{args.out}.perm.jsonl"
        inputs = _paths(args, _READS)
        checked_paths(inputs, _paths(args, _WRITES))
        outputs = args.func(args)
        if outputs:
            RunManifest(
                command=args.command,
                config={
                    flag.lstrip("-").replace("-", "_"): ",".join(map(str, values))
                    for flag, _, values in _options(args)
                },
                seed=getattr(args, "seed", None),
                input_digests={path: _sha256(path) for _, path in inputs},
                output_digests={path: _sha256(path) for path in outputs},
            ).write(manifest_path(outputs[0]))
    except (ValueError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"  # the shape of every diagnostic
        elif isinstance(exc, corpus_io.InputError):  # a fault of the inputs together
            message = f"{', '.join(path for _, path in inputs)}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
