"""Command-line interface.

``python -m repro <command>`` exposes the library's main workflows without
writing any Python:

* ``generate-dataset`` — build a synthetic IITM-Bandersnatch dataset
  (metadata + per-viewer pcaps) under a directory, optionally sharded;
* ``stitch`` — verify shard directories gathered from ``--only-shards`` runs
  and publish their merged ``shards.json`` manifest;
* ``train`` — learn record-length fingerprints from the labelled half of a
  saved dataset (or every shard of a sharded one) into a JSON library file;
* ``merge-fingerprints`` — fold per-machine accumulator states into one
  library;
* ``attack`` — run the White Mirror attack on a pcap file (or a directory of
  pcaps) using a fingerprint library;
* ``watch`` — attack captures as they land in one or more drop directories;
* ``arena`` — sweep defense × classifier × condition cells and publish the
  overhead/leakage Pareto report;
* ``serve`` — coordinate a sharded generate+train plan (or an arena sweep)
  across pull workers;
* ``work`` — pull leased units from a ``serve`` coordinator and run them;
* ``reproduce`` — run the paper-reproduction experiments (Table I, Figures 1
  and 2, the Section V headline, and the ablations) and print the report;
* ``inspect`` — summarise a pcap: flows, volumes, and client record lengths.
"""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
