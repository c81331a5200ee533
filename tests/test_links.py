"""Every relative link in README.md and docs/*.md leads somewhere: its
file exists, and its #anchor is a heading of that file."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAGES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

# A Markdown link's target, and a target that is a URL.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
URL = re.compile(r"[a-z][a-z0-9+.-]*:", re.I)


def prose(text: str) -> str:
    """`text` without its fenced code blocks and code spans, where a
    bracket or a `#` is code, not Markdown."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return re.sub(r"`[^`\n]*`", "", text)


def anchors(page: Path) -> set:
    """The anchors of the headings of `page`, by GitHub's rule: lower
    case, punctuation but `-` and `_` dropped, each space a `-`."""
    return {re.sub(r"[^\w\- ]", "", title.strip().lower()).replace(" ", "-")
            for title in re.findall(r"^#+ (.*)$", prose(
                page.read_text(encoding="utf-8")), re.M)}


def links(page: Path) -> list:
    return [target for target in LINK.findall(prose(
        page.read_text(encoding="utf-8"))) if not URL.match(target)]


@pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
def test_relative_links_resolve(page):
    broken = []
    for target in links(page):
        path, _, anchor = target.partition("#")
        dest = (page.parent / path).resolve() if path else page
        if not dest.exists():
            broken.append(target)
        elif anchor and anchor not in anchors(dest):
            broken.append(target)
    assert broken == []


def test_links_are_found():
    # The pages link to each other, anchors included, so an empty list
    # means the pattern broke, not that every link resolves.
    assert any("#" in target for page in PAGES for target in links(page))
