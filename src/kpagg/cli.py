"""Command-line interface: run, stats, and grid subcommands. `kpagg run`
takes its defaults from `harness.RunConfig`. Exits 0, 1 after a fatal error
(`Error: <message>` on stderr), 2 on a malformed command line, or 141 when
stdout's reader has left."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import __version__, harness, metrics
from .aggregation import STRATEGIES, STRATEGY_ALIASES
from .corpus import DOMAINS, CorpusError, corpus_stats, format_stats, load_corpus, stats_csv
from .llm_client import PPL_MODES, REQUEST_MODES, LLMClientError, post_url
from .prompting import VARIANT_ALIASES, VARIANTS, PromptConfigError

_FATAL = (harness.HarnessError, CorpusError, PromptConfigError, LLMClientError, OSError)


class _Help(argparse.HelpFormatter):
    """Shows each option's default after its help, unless that is None."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.default in (None, argparse.SUPPRESS) or "%(default)" in action.help:
            return action.help
        return f"{action.help} (default: %(default)s)"


def _fetch_counts(summary: harness.RunSummary) -> str:
    """The counts a run shares with every config of its fetch group."""
    return (
        f"parse_fallbacks={summary.parse_fallbacks} restarted={summary.restarted} "
        f"truncated={summary.truncated} unranked={summary.unranked} "
        f"cache_hits={summary.cache_hits} cache_misses={summary.cache_misses} "
        f"wall={summary.wall_time:.2f}s"
    )


def _settings(args: argparse.Namespace) -> harness.RunConfig:
    """The subcommand's `RunConfig`; a value it refuses is a usage error."""
    try:
        return harness.RunConfig(*[getattr(args, name) for name in harness.RunConfig._fields])
    except harness.HarnessError as exc:
        args.parser.error(str(exc))


def run_cmd(args: argparse.Namespace) -> None:
    """Run one corpus x variant x strategy configuration."""
    config = _settings(args)
    summary = harness.run(config)
    print(f"documents processed={summary.processed} errored={summary.errored} "
          f"{_fetch_counts(summary)}")
    print(metrics.reports_table([summary.report]))
    if config.out:
        print(f"wrote {config.out}")


def stats_cmd(args: argparse.Namespace) -> None:
    """Describe a corpus: input length and present/absent gold counts."""
    config = _settings(args)
    if args.csv_path is not None:  # "" too, which `check_outputs` refuses
        harness.check_outputs([args.csv_path], [(config.corpus_path, "a corpus")], meta=False)
    docs = load_corpus(config.corpus_path, default_domain=config.default_domain)
    stats = corpus_stats(docs[: config.limit])
    print(format_stats(stats))
    if args.csv_path is not None:
        Path(args.csv_path).parent.mkdir(parents=True, exist_ok=True)
        Path(args.csv_path).write_text(stats_csv(stats), encoding="utf-8")
        print(f"wrote {args.csv_path}")


def grid_cmd(args: argparse.Namespace) -> None:
    """Run several configurations and print one merged table."""
    configs, out = harness.load_grid_config(args.config_path)
    summaries = harness.grid(configs, out=out, reads=[args.config_path])
    # one line per fetch group, naming its runs by their 1-based numbers
    for members in harness.fetch_groups(configs):
        runs = ",".join(str(i + 1) for i in members)
        print(f"fetch group of runs {runs}: {_fetch_counts(summaries[members[0]])}")
    # a column for each setting but `out` whose values tell runs apart that
    # the table's own columns (the corpus file's stem, variant and strategy)
    # do not, then each run's own document counts
    shown = {"corpus_path": lambda p: Path(p).stem, "variant": str, "strategy": str}
    labels = {}
    for name in harness.RunConfig._fields:
        values = [getattr(c, name) for c in configs]
        show = shown.get(name, lambda v: None)
        if name != "out" and len(set(values)) > len(set(map(show, values))):
            labels[name] = values
    if "endpoint" in labels:  # without the credentials or query an endpoint may hold
        labels["endpoint"] = [e and post_url(e)[1] for e in labels["endpoint"]]
    labels["processed"] = [s.processed for s in summaries]
    labels["errored"] = [s.errored for s in summaries]
    print(metrics.reports_table([s.report for s in summaries], labels))
    if out:
        print(f"wrote {out}")


def build_parser() -> argparse.ArgumentParser:
    # without allow_abbrev=False a prefix such as `--off` would pass for `--offline`
    style = dict(allow_abbrev=False, formatter_class=_Help)
    parser = argparse.ArgumentParser(
        prog="kpagg",
        description="Zero-shot keyphrase generation harness: sample, aggregate, evaluate.",
        **style,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(fn, name: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, **style)
        # set before the options are added, so each takes its default from
        # here; `_settings` takes the fields a command has no option for too
        sub.set_defaults(action=fn, parser=sub, **harness.RunConfig._field_defaults)
        return sub

    run = command(run_cmd, "run")
    add = run.add_argument
    add("--corpus", dest="corpus_path", required=True, help="JSON-lines corpus file.")
    # each alias, and each canonical name (the one a default shows)
    variants = list(dict.fromkeys([*VARIANT_ALIASES, *VARIANTS]))
    strategies = list(dict.fromkeys([*STRATEGY_ALIASES, *STRATEGIES]))
    add("--variant", choices=variants, help="Prompt variant.")
    add("--aggregate", dest="strategy", choices=strategies, help="Aggregation strategy.")
    add("--n-samples", type=int, help="Samples drawn per document.")
    add("--temperature", type=float, help="Sampling temperature.")
    add("--max-tokens", type=int, help="Token limit of each sample.")
    add("--model", help="Model name sent to the endpoint.")
    add("--endpoint", help=f"Chat-completions base URL; falls back to ${harness.ENDPOINT_ENV}. "
                           "Its scheme, host, port and path name the cache directory a run reads, "
                           f"offline too. Credential comes from ${harness.API_KEY_ENV} only.")
    add("--limit", type=int, help="Evaluate only this many documents.")
    add("--seed", type=int, help="Select the --limit subset at random with this seed "
                                 "(default: first documents in file order).")
    add("--cache-dir", help="Sample cache root; reruns replay from here.")
    add("--out", help="Write the metric report CSV here.")
    add("--empty-gold", choices=metrics.EMPTY_GOLD_POLICIES,
        help="Macro-average handling of documents with no gold keyphrases in a partition.")
    add("--prompt-config", help="YAML (or JSON) file overriding the bundled prompt strings.")
    add("--prefill", action=argparse.BooleanOptionalAction,
        help="Start the assistant turn with '[' (disable for endpoints that reject "
             "partial assistant turns).")
    add("--request-mode", choices=REQUEST_MODES,
        help="Each request asks for all of a document's missing samples, or for one.")
    add("--ppl-mode", choices=PPL_MODES, help="Perplexity from mean or summed token NLL.")
    add("--offline", action="store_true", help="Never touch the network; requires a warm cache.")
    add("--default-domain", choices=DOMAINS, help="Domain for records that do not declare one.")
    add("--max-in-flight", type=int, help="Documents fetched concurrently.")

    stats = command(stats_cmd, "stats")
    stats.add_argument("--corpus", dest="corpus_path", required=True,
                       help="JSON-lines corpus file.")
    stats.add_argument("--limit", type=int, help="Use only the first N documents.")
    stats.add_argument("--default-domain", choices=DOMAINS,
                       help="Domain for records that do not declare one.")
    stats.add_argument("--csv", dest="csv_path", help="Also write the stats as CSV here.")

    grid = command(grid_cmd, "grid")
    grid.add_argument("--config", dest="config_path", required=True,
                      help="Grid YAML: shared keys at top level, overrides in 'runs'.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the `kpagg` command line; returns the exit status (module docstring)."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        args.action(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader has left: end quietly with a shell's status for a pipe
        # that ended the process (128 + SIGPIPE), and let the exit-time
        # flush of what is buffered go to devnull. SIGPIPE stays ignored:
        # the transport's resend of a stale connection needs `sendall` to
        # raise, not to kill the process.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except _FATAL as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # no traceback for Ctrl-C
        print("Aborted!", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
