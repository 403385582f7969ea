"""Command-line interface: run, stats, and grid subcommands."""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from . import __version__, harness, metrics
from .aggregation import STRATEGY_ALIASES
from .corpus import (
    DOMAINS,
    CorpusError,
    corpus_stats,
    format_stats,
    load_corpus,
    stats_csv,
)
from .llm_client import PPL_MODES, REQUEST_MODES, LLMClientError
from .prompting import VARIANT_ALIASES, PromptConfigError

_FATAL = (harness.HarnessError, CorpusError, PromptConfigError, LLMClientError)


@click.group()
@click.version_option(__version__)
@click.option("-v", "--verbose", is_flag=True, help="Log debug detail to stderr.")
def main(verbose: bool) -> None:
    """Zero-shot keyphrase generation harness: sample, aggregate, evaluate."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _run_options(fn):
    options = [
        click.option("--corpus", "corpus_path", required=True,
                     type=click.Path(exists=True, dir_okay=False),
                     help="JSON-lines corpus file."),
        click.option("--variant", default="baseline",
                     type=click.Choice(list(VARIANT_ALIASES)),
                     help="Prompt variant."),
        click.option("--aggregate", "strategy", default="frequency",
                     type=click.Choice(list(STRATEGY_ALIASES)),
                     help="Aggregation strategy."),
        click.option("--n-samples", default=10, type=click.IntRange(min=1),
                     show_default=True, help="Samples drawn per document."),
        click.option("--temperature", default=0.8, type=click.FloatRange(min=0),
                     show_default=True),
        click.option("--max-tokens", default=500, type=click.IntRange(min=1),
                     show_default=True),
        click.option("--model", default="default", show_default=True,
                     help="Model name sent to the endpoint."),
        click.option("--endpoint", default=None,
                     help=f"Chat-completions base URL; falls back to "
                          f"${harness.ENDPOINT_ENV}. Credential comes from "
                          f"${harness.API_KEY_ENV} only."),
        click.option("--limit", default=None, type=click.IntRange(min=1),
                     help="Evaluate only this many documents."),
        click.option("--seed", default=None, type=int,
                     help="Select the --limit subset at random with this seed "
                          "(default: first documents in file order)."),
        click.option("--cache-dir", default="cache", show_default=True,
                     help="Sample cache root; reruns replay from here."),
        click.option("--out", default=None, type=click.Path(dir_okay=False),
                     help="Write the metric report CSV here."),
        click.option("--empty-gold", default="exclude",
                     type=click.Choice(metrics.EMPTY_GOLD_POLICIES), show_default=True,
                     help="Macro-average handling of documents with no gold "
                          "keyphrases in a partition."),
        click.option("--prompt-config", default=None,
                     type=click.Path(exists=True, dir_okay=False),
                     help="YAML (or JSON) file overriding the bundled prompt strings."),
        click.option("--prefill/--no-prefill", default=True, show_default=True,
                     help="Start the assistant turn with '[' (disable for "
                          "endpoints that reject partial assistant turns)."),
        click.option("--request-mode", default="choices",
                     type=click.Choice(REQUEST_MODES),
                     show_default=True,
                     help="One n-choice request per document, or n requests."),
        click.option("--ppl-mode", default="mean",
                     type=click.Choice(PPL_MODES), show_default=True,
                     help="Perplexity from mean or summed token NLL."),
        click.option("--offline", is_flag=True,
                     help="Never touch the network; requires a warm cache."),
        click.option("--default-domain", default="scientific",
                     type=click.Choice(DOMAINS), show_default=True,
                     help="Domain for records that do not declare one."),
        click.option("--max-in-flight", default=4, type=click.IntRange(min=1),
                     show_default=True, help="Documents fetched concurrently."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _echo_summary(summary: harness.RunSummary) -> None:
    click.echo(
        f"documents processed={summary.processed} errored={summary.errored} "
        f"parse_fallbacks={summary.parse_fallbacks} truncated={summary.truncated} "
        f"cache_hits={summary.cache_hits} cache_misses={summary.cache_misses} "
        f"wall={summary.wall_time:.2f}s"
    )


@main.command("run")
@_run_options
def run_cmd(**kwargs) -> None:
    """Run one corpus x variant x strategy configuration."""
    try:
        config = harness.RunConfig(**kwargs)
        summary = harness.run(config)
    except _FATAL as exc:
        raise click.ClickException(str(exc)) from exc
    _echo_summary(summary)
    click.echo(metrics.reports_table([summary.report]))
    if config.out:
        click.echo(f"wrote {config.out}")


@main.command("stats")
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON-lines corpus file.")
@click.option("--limit", default=None, type=click.IntRange(min=1),
              help="Use only the first N documents.")
@click.option("--default-domain", default="scientific",
              type=click.Choice(DOMAINS), show_default=True)
@click.option("--csv", "csv_path", default=None, type=click.Path(dir_okay=False),
              help="Also write the stats as CSV here.")
def stats_cmd(corpus_path, limit, default_domain, csv_path) -> None:
    """Describe a corpus: input length and present/absent gold counts."""
    try:
        docs = load_corpus(corpus_path, default_domain=default_domain)
        stats = corpus_stats(docs[:limit])
    except CorpusError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(format_stats(stats))
    if csv_path:
        Path(csv_path).write_text(stats_csv(stats), encoding="utf-8")
        click.echo(f"wrote {csv_path}")


@main.command("grid")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Grid YAML: shared keys at top level, overrides in 'runs'.")
def grid_cmd(config_path) -> None:
    """Run several configurations and print one merged table."""
    try:
        configs, out = harness.load_grid_config(config_path)
        summaries = harness.grid(configs, out=out)
    except _FATAL as exc:
        raise click.ClickException(str(exc)) from exc
    for summary in summaries:
        _echo_summary(summary)
    click.echo(metrics.reports_table([s.report for s in summaries]))
    if out:
        click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
