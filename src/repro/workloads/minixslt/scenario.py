"""The two Xalan regression scenarios.

**XALANJ-1725** (2.5.1 -> 2.5.2): a stylesheet whose template contains a
literal result element with several attributes.  The 2.5.2 compiler emits
one ATTR op too few; the missing attribute only vanishes when the
generated code runs.  The correct test case removes the multi-attribute
section from the stylesheet ("we modified the XSLT file and removed the
small section of the file that was causing incorrect behavior ...
constructed without foreknowledge of the regression cause").

**XALANJ-1802** (2.4.1 -> 2.5.1): an input document that *shadows* a
namespace prefix in a nested element and uses it again afterwards.  The
re-architected scoped resolver drops the outer binding on pop, so the
later ``namespace-uri()`` falls back to the recovery URI.  The correct
test case uses the same document without the shadowing redeclaration.
"""

from __future__ import annotations

from functools import partial

from repro.workloads.minixslt.engine import transform

# ---------------------------------------------------------------------------
# XALANJ-1725 analogue
# ---------------------------------------------------------------------------

STYLESHEET_1725 = """
<xsl:stylesheet>
  <xsl:template match="catalog">
    <xsl:apply-templates select="item"/>
  </xsl:template>
  <xsl:template match="item">
    <row id="r1" class="item" role="data">
      <xsl:value-of select="@name"/>
    </row>
  </xsl:template>
</xsl:stylesheet>
"""

#: Same stylesheet with the multi-attribute literal element reduced — the
#: similar, non-regressing test case.
STYLESHEET_1725_SAFE = """
<xsl:stylesheet>
  <xsl:template match="catalog">
    <xsl:apply-templates select="item"/>
  </xsl:template>
  <xsl:template match="item">
    <row id="r1">
      <xsl:value-of select="@name"/>
    </row>
  </xsl:template>
</xsl:stylesheet>
"""

DOCUMENT_1725 = """
<catalog>
  <item name="alpha"/>
  <item name="beta"/>
  <item name="gamma"/>
</catalog>
"""

#: Inputs for the scenario driver: (stylesheet, document).
REGRESSING_INPUT_1725 = (STYLESHEET_1725, DOCUMENT_1725)
CORRECT_INPUT_1725 = (STYLESHEET_1725_SAFE, DOCUMENT_1725)


def run_1725(version: str, inputs: tuple[str, str]) -> str:
    stylesheet, document = inputs
    return transform(version, stylesheet, document)


run_1725_old = partial(run_1725, "2.5.1")
run_1725_new = partial(run_1725, "2.5.2")


def regression_1725_manifests() -> bool:
    return (run_1725_old(REGRESSING_INPUT_1725)
            != run_1725_new(REGRESSING_INPUT_1725))


def is_cause_entry_1725(entry) -> bool:
    """Ground truth: the wrong attribute emission inside
    LiteralElementCompiler.translate / check_attributes_unique, plus the
    downstream flow of the dropped ``role`` attribute (missing ATTR op at
    codegen, missing attribute write at execution) — the paper counts
    such sequences as regression-related, not as false positives."""
    method = getattr(entry.event, "method", "") or ""
    if ("LiteralElementCompiler.translate" in entry.method
            or "LiteralElementCompiler.translate" in method
            or "check_attributes_unique" in entry.method
            or "check_attributes_unique" in method):
        return True
    event = entry.event
    texts = []
    for rep in [getattr(event, "value", None),
                getattr(event, "obj", None),
                *list(getattr(event, "args", ()) or ())]:
        if rep is not None:
            texts.append(str(rep.serialization))
    # The dropped attribute itself, or the affected generated-code block
    # flowing from the compiler to the VM (its representations carry the
    # <row> template's op list / the "item" compiled template).
    return any("role" in text
               or "Op(START_ELEM, 'row')" in text
               or "CompiledTemplate(item" in text
               for text in texts)


# ---------------------------------------------------------------------------
# XALANJ-1802 analogue
# ---------------------------------------------------------------------------

STYLESHEET_1802 = """
<xsl:stylesheet>
  <xsl:template match="doc">
    <xsl:apply-templates select="*"/>
  </xsl:template>
  <xsl:template match="*">
    <xsl:value-of select="name()"/>
    <xsl:value-of select="namespace-uri()"/>
    <xsl:apply-templates select="*"/>
  </xsl:template>
</xsl:stylesheet>
"""

#: The prefix ``a`` is shadowed inside <inner> and used again after it.
DOCUMENT_1802 = """
<doc xmlns:a="urn:outer">
  <a:first>x</a:first>
  <inner xmlns:a="urn:inner">
    <a:second>y</a:second>
  </inner>
  <a:third>z</a:third>
</doc>
"""

#: Same document without the shadowing redeclaration.
DOCUMENT_1802_SAFE = """
<doc xmlns:a="urn:outer">
  <a:first>x</a:first>
  <inner>
    <a:second>y</a:second>
  </inner>
  <a:third>z</a:third>
</doc>
"""

REGRESSING_INPUT_1802 = (STYLESHEET_1802, DOCUMENT_1802)
CORRECT_INPUT_1802 = (STYLESHEET_1802, DOCUMENT_1802_SAFE)


def run_1802(version: str, inputs: tuple[str, str]) -> str:
    stylesheet, document = inputs
    return transform(version, stylesheet, document)


run_1802_old = partial(run_1802, "2.4.1")
run_1802_new = partial(run_1802, "2.5.1")


def regression_1802_manifests() -> bool:
    return (run_1802_old(REGRESSING_INPUT_1802)
            != run_1802_new(REGRESSING_INPUT_1802))


def is_cause_entry_1802(entry) -> bool:
    """Ground truth: the over-eager pop in the scoped resolver and the
    unresolved-URI flow it forces through resolution and output."""
    method = getattr(entry.event, "method", "") or ""
    if ("ScopedResolver.pop_scope" in entry.method
            or "ScopedResolver.pop_scope" in method
            or "resolve" in method):
        return True
    event = entry.event
    texts = []
    for rep in [getattr(event, "value", None),
                *list(getattr(event, "args", ()) or ())]:
        if rep is not None:
            texts.append(str(rep.serialization))
    return any("urn:unresolved" in text or "urn:outer" in text
               for text in texts)
