"""The shared whitespace tokenizer (textops.tokenize) splits exactly where
the DuckDB oracles split: string_split_regex(text, '\\s+'), RE2's \\s."""

import duckdb
import pandas as pd

from raster_functions_ray.textops import tokenize

TEXTS = [
    "a\x0bb\x1cc\xa0d e f\tg\nh\ri\x0cj",  # \v, \x1c and NBSP are not RE2 \s
    "",
    " \t\n\r\x0c ",
    "\x0b",
    "\x0blead",
    "trail\x0b",
    " \x0b x \x0b ",
]


def test_tokenize_matches_duckdb_oracle():
    con = duckdb.connect()
    oracle = [con.execute(
        "SELECT list_filter(string_split_regex(?, '\\s+'), x -> x <> '')",
        [t]).fetchone()[0] for t in TEXTS]
    assert tokenize(pd.Series(TEXTS)).tolist() == oracle
    assert oracle[0] == ["a\x0bb\x1cc\xa0d", "e", "f", "g", "h", "i", "j"]
