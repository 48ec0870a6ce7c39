"""The README's library quick start runs as written, and its CSV column
lists are the columns written."""

import re
from pathlib import Path

from bitsim.analysis import ANALYZE_CSV_COLUMNS, ReportDocument

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    cycles, sb_reads = capsys.readouterr().out.split()
    assert int(cycles) > 0 and int(sb_reads) > 0


def readme_columns(intro):
    """The comma-separated names of the first plain code block after
    ``intro``."""
    block = re.search(re.escape(intro) + r"\n\n```\n(.*?)^```", README.read_text(),
                      re.S | re.M)
    return tuple(block[1].replace(",", " ").split())


def test_csv_column_blocks_name_the_columns_written():
    assert readme_columns("### CSV columns (`simulate`)") == ReportDocument.CSV_COLUMNS
    assert readme_columns("`analyze` emits:") == ANALYZE_CSV_COLUMNS
