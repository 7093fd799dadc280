"""A synthetic corpus read the way ``train-predictor`` reads one, and a
stats CSV with a column cut out."""
import csv

from shapenas.dataset import ingest_stats, write_stats
from shapenas.oracle import TARGET_NAMES, gen_synth_stats


def synth_corpus(path, catalog, contexts, model, count, seed):
    """``gen_synth_stats``' records, written to the stats CSV ``path`` as
    ``gen-synth`` writes them and read back with ``ingest_stats``: the
    records and the encoded dataset."""
    rows = gen_synth_stats(catalog, contexts, model, count, seed)
    write_stats(rows, TARGET_NAMES, path)
    return rows, ingest_stats(path)


def drop_column(path, name):
    """Rewrite the CSV ``path`` without its column ``name``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(row[:j] + row[j + 1:] for row in rows)
