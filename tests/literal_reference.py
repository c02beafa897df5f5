"""A Literal read the slow way: the prefix, then the tail word cycled.

Shares no code with godellab.spaces, so the tests check every
closed-form analysis of a Literal against it.  `span` positions cover
the prefix plus four tail periods and then some, so any value or cluster
an analysis claims shows up in `window(d, span(d))`.
"""

from godellab.spaces import Constant


def tail_word(d):
    """The tail's repeating word: one value for a Constant tail."""
    return [d.tail.value] if isinstance(d.tail, Constant) else list(d.tail.word)


def window(d, count):
    """d's values at positions 0..count-1."""
    w = tail_word(d)
    return [
        d.prefix[n] if n < len(d.prefix) else w[(n - len(d.prefix)) % len(w)]
        for n in range(count)
    ]


def span(d):
    return len(d.prefix) + 4 * len(tail_word(d)) + 8
