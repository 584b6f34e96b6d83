//! A from-scratch streaming (SAX-style) XML parser.
//!
//! The BLAS index generator (§4, Fig. 6) consumes SAX events; this module
//! provides them as an iterator of [`SaxEvent`]s. The parser covers the
//! XML features exercised by the paper's three datasets:
//!
//! * elements with attributes (both quote styles, self-closing tags),
//! * character data with entity and character references,
//! * CDATA sections, comments, processing instructions and a DOCTYPE
//!   declaration (the latter three are skipped, as the paper's index
//!   generator ignores them),
//! * well-formedness enforcement (tag balance, single root).
//!
//! It is deliberately *not* a full XML 1.0 implementation: namespaces are
//! treated as opaque name prefixes and external DTD entities are not
//! resolved — neither occurs in the paper's workloads.

use crate::error::{ParseError, ParseErrorKind};
use crate::escape::unescape;
use std::borrow::Cow;

/// One parsed attribute: `name="value"` with the value unescaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name as written.
    pub name: &'a str,
    /// Attribute value with entities resolved.
    pub value: Cow<'a, str>,
}

/// A streaming parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent<'a> {
    /// `<name attr="v" ...>` (also emitted for self-closing tags,
    /// immediately followed by the matching [`SaxEvent::EndElement`]).
    StartElement {
        /// Element name.
        name: &'a str,
        /// Attributes in document order.
        attributes: Vec<Attribute<'a>>,
    },
    /// `</name>`.
    EndElement {
        /// Element name.
        name: &'a str,
    },
    /// Character data (entities resolved; CDATA passed through verbatim).
    Text(Cow<'a, str>),
}

/// Streaming XML parser over an in-memory string.
///
/// Iterate to receive [`SaxEvent`]s:
///
/// ```
/// use blas_xml::{SaxParser, SaxEvent};
/// let events: Result<Vec<_>, _> = SaxParser::new("<a><b>hi</b></a>").collect();
/// let events = events.unwrap();
/// assert_eq!(events.len(), 5); // <a> <b> "hi" </b> </a>
/// assert!(matches!(events[2], SaxEvent::Text(ref t) if t == "hi"));
/// ```
pub struct SaxParser<'a> {
    input: &'a str,
    pos: usize,
    /// Names of currently open elements (well-formedness check).
    stack: Vec<&'a str>,
    /// Set once the (single) root element has been closed.
    root_closed: bool,
    seen_root: bool,
    /// Emit whitespace-only text events (off by default; the paper's
    /// position counting treats only *meaningful* text as a unit).
    keep_whitespace: bool,
    /// Pending end event for a self-closing tag.
    pending_end: Option<&'a str>,
    finished: bool,
}

impl<'a> SaxParser<'a> {
    /// Create a parser over `input`. Whitespace-only text is skipped.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            stack: Vec::with_capacity(16),
            root_closed: false,
            seen_root: false,
            keep_whitespace: false,
            pending_end: None,
            finished: false,
        }
    }

    /// Keep whitespace-only text events instead of dropping them.
    #[must_use]
    pub fn keep_whitespace(mut self, keep: bool) -> Self {
        self.keep_whitespace = keep;
        self
    }

    /// Current nesting depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::new(self.pos, kind)
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    /// Parse a Name production (simplified: leading alpha/_/:, then
    /// alnum/_/-/./:).
    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_alphabetic() || c == '_' || c == ':'
            } else {
                c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
            };
            if !ok {
                break;
            }
            end = i + c.len_utf8();
        }
        if end == 0 {
            let c = rest.chars().next();
            return Err(self.err(match c {
                Some(c) => ParseErrorKind::UnexpectedChar(c),
                None => ParseErrorKind::UnexpectedEof,
            }));
        }
        let name = &rest[..end];
        self.bump(end);
        Ok(name)
    }

    /// Called with `pos` just after `<`. Parses a start tag (possibly
    /// self-closing).
    fn parse_start_tag(&mut self) -> Result<SaxEvent<'a>, ParseError> {
        let name = self.parse_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            let rest = self.rest();
            if let Some(r) = rest.strip_prefix("/>") {
                let _ = r;
                self.bump(2);
                if self.root_closed {
                    return Err(self.err(ParseErrorKind::MultipleRoots));
                }
                self.seen_root = true;
                if self.stack.is_empty() {
                    self.root_closed = true;
                }
                self.pending_end = Some(name);
                return Ok(SaxEvent::StartElement { name, attributes });
            }
            if rest.starts_with('>') {
                self.bump(1);
                if self.root_closed {
                    return Err(self.err(ParseErrorKind::MultipleRoots));
                }
                self.seen_root = true;
                self.stack.push(name);
                return Ok(SaxEvent::StartElement { name, attributes });
            }
            if rest.is_empty() {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            }
            // Attribute.
            let attr_name = self.parse_name()?;
            self.skip_ws();
            if !self.rest().starts_with('=') {
                let c = self.rest().chars().next();
                return Err(self.err(match c {
                    Some(c) => ParseErrorKind::UnexpectedChar(c),
                    None => ParseErrorKind::UnexpectedEof,
                }));
            }
            self.bump(1);
            self.skip_ws();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                Some(c) => return Err(self.err(ParseErrorKind::UnexpectedChar(c))),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            };
            self.bump(1);
            let raw = self.rest();
            let close = raw
                .find(quote)
                .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof))?;
            let value = unescape(&raw[..close], self.pos)?;
            self.bump(close + 1);
            if attributes.iter().any(|a: &Attribute<'_>| a.name == attr_name) {
                return Err(self.err(ParseErrorKind::DuplicateAttribute(attr_name.to_string())));
            }
            attributes.push(Attribute { name: attr_name, value });
        }
    }

    /// Called with `pos` just after `</`.
    fn parse_end_tag(&mut self) -> Result<SaxEvent<'a>, ParseError> {
        let name = self.parse_name()?;
        self.skip_ws();
        if !self.rest().starts_with('>') {
            let c = self.rest().chars().next();
            return Err(self.err(match c {
                Some(c) => ParseErrorKind::UnexpectedChar(c),
                None => ParseErrorKind::UnexpectedEof,
            }));
        }
        self.bump(1);
        match self.stack.pop() {
            Some(open) if open == name => {
                if self.stack.is_empty() {
                    self.root_closed = true;
                }
                Ok(SaxEvent::EndElement { name })
            }
            Some(open) => Err(self.err(ParseErrorKind::MismatchedEndTag {
                expected: open.to_string(),
                found: name.to_string(),
            })),
            None => Err(self.err(ParseErrorKind::UnmatchedEndTag(name.to_string()))),
        }
    }

    /// Skip `<!-- ... -->`, returning an error on malformed comments.
    fn skip_comment(&mut self) -> Result<(), ParseError> {
        // pos is at "<!--".
        self.bump(4);
        match self.rest().find("-->") {
            Some(i) => {
                if self.rest()[..i].contains("--") {
                    return Err(self.err(ParseErrorKind::MalformedMarkup("comment")));
                }
                self.bump(i + 3);
                Ok(())
            }
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
    }

    /// Skip `<? ... ?>`.
    fn skip_pi(&mut self) -> Result<(), ParseError> {
        self.bump(2);
        match self.rest().find("?>") {
            Some(i) => {
                self.bump(i + 2);
                Ok(())
            }
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
    }

    /// Skip `<!DOCTYPE ...>` including a bracketed internal subset.
    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        // pos at "<!DOCTYPE".
        let mut depth = 0usize;
        let bytes = self.input.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos = i + 1;
                    return Ok(());
                }
                _ => {}
            }
            i += 1;
        }
        self.pos = self.input.len();
        Err(self.err(ParseErrorKind::UnexpectedEof))
    }

    /// Parse `<![CDATA[ ... ]]>` into a text event.
    fn parse_cdata(&mut self) -> Result<SaxEvent<'a>, ParseError> {
        self.bump("<![CDATA[".len());
        let rest = self.rest();
        let end = rest
            .find("]]>")
            .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof))?;
        let text = &rest[..end];
        self.bump(end + 3);
        Ok(SaxEvent::Text(Cow::Borrowed(text)))
    }

    fn next_event(&mut self) -> Option<Result<SaxEvent<'a>, ParseError>> {
        if let Some(name) = self.pending_end.take() {
            return Some(Ok(SaxEvent::EndElement { name }));
        }
        loop {
            if self.finished {
                return None;
            }
            if self.pos >= self.input.len() {
                self.finished = true;
                if !self.stack.is_empty() {
                    return Some(Err(self.err(ParseErrorKind::UnclosedElements(self.stack.len()))));
                }
                if !self.seen_root {
                    return Some(Err(self.err(ParseErrorKind::NoRootElement)));
                }
                return None;
            }
            let rest = self.rest();
            if let Some(after) = rest.strip_prefix('<') {
                if after.starts_with("!--") {
                    if let Err(e) = self.skip_comment() {
                        self.finished = true;
                        return Some(Err(e));
                    }
                    continue;
                }
                if after.starts_with("![CDATA[") {
                    if self.stack.is_empty() {
                        self.finished = true;
                        return Some(Err(self.err(ParseErrorKind::TrailingContent)));
                    }
                    let ev = self.parse_cdata();
                    if ev.is_err() {
                        self.finished = true;
                    }
                    return Some(ev);
                }
                if after.starts_with("!DOCTYPE") || after.starts_with("!doctype") {
                    if let Err(e) = self.skip_doctype() {
                        self.finished = true;
                        return Some(Err(e));
                    }
                    continue;
                }
                if after.starts_with('?') {
                    self.bump(1); // consume '<', skip_pi expects to be at "<?"... adjust
                    self.pos -= 1;
                    if let Err(e) = self.skip_pi() {
                        self.finished = true;
                        return Some(Err(e));
                    }
                    continue;
                }
                if after.starts_with('/') {
                    self.bump(2);
                    let ev = self.parse_end_tag();
                    if ev.is_err() {
                        self.finished = true;
                    }
                    return Some(ev);
                }
                if self.root_closed {
                    self.finished = true;
                    return Some(Err(self.err(ParseErrorKind::MultipleRoots)));
                }
                self.bump(1);
                let ev = self.parse_start_tag();
                if ev.is_err() {
                    self.finished = true;
                }
                return Some(ev);
            }
            // Character data up to the next '<'.
            let end = rest.find('<').unwrap_or(rest.len());
            let raw = &rest[..end];
            let base = self.pos;
            self.bump(end);
            let significant = !raw.trim().is_empty();
            if self.stack.is_empty() {
                if significant {
                    self.finished = true;
                    return Some(Err(ParseError::new(base, ParseErrorKind::TrailingContent)));
                }
                continue;
            }
            if !significant && !self.keep_whitespace {
                continue;
            }
            match unescape(raw, base) {
                Ok(text) => return Some(Ok(SaxEvent::Text(text))),
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl<'a> Iterator for SaxParser<'a> {
    type Item = Result<SaxEvent<'a>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event()
    }
}

/// What [`feed`] reports: a document's elements in document order, each
/// attribute as an `@name` child carrying its value — the shape the
/// BLAS labeling gives attributes.
pub trait ElementSink {
    /// An element opens under the innermost open one.
    fn open(&mut self, name: &str);
    /// Text of the innermost open element; it may come in pieces.
    fn text(&mut self, text: &str);
    /// The innermost open element closes.
    fn close(&mut self);
}

/// Parse `input` into `sink`, stopping at the first error.
pub fn feed(input: &str, sink: &mut impl ElementSink) -> Result<(), ParseError> {
    for event in SaxParser::new(input) {
        match event? {
            SaxEvent::StartElement { name, attributes } => {
                sink.open(name);
                for attribute in attributes {
                    sink.open(&format!("@{}", attribute.name));
                    sink.text(&attribute.value);
                    sink.close();
                }
            }
            SaxEvent::EndElement { .. } => sink.close(),
            SaxEvent::Text(text) => sink.text(&text),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<SaxEvent<'_>> {
        SaxParser::new(input).collect::<Result<Vec<_>, _>>().unwrap()
    }

    fn kinds(input: &str) -> Vec<String> {
        events(input)
            .into_iter()
            .map(|e| match e {
                SaxEvent::StartElement { name, .. } => format!("+{name}"),
                SaxEvent::EndElement { name } => format!("-{name}"),
                SaxEvent::Text(t) => format!("t:{t}"),
            })
            .collect()
    }

    #[test]
    fn simple_document() {
        assert_eq!(kinds("<a><b>hi</b></a>"), ["+a", "+b", "t:hi", "-b", "-a"]);
    }

    #[test]
    fn self_closing_emits_start_and_end() {
        assert_eq!(kinds("<a><b/></a>"), ["+a", "+b", "-b", "-a"]);
    }

    #[test]
    fn attributes_parsed_and_unescaped() {
        let evs = events(r#"<a x="1" y='two &amp; three'/>"#);
        match &evs[0] {
            SaxEvent::StartElement { name, attributes } => {
                assert_eq!(*name, "a");
                assert_eq!(attributes[0].name, "x");
                assert_eq!(attributes[0].value, "1");
                assert_eq!(attributes[1].name, "y");
                assert_eq!(attributes[1].value, "two & three");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whitespace_only_text_skipped_by_default() {
        assert_eq!(kinds("<a>\n  <b>x</b>\n</a>"), ["+a", "+b", "t:x", "-b", "-a"]);
    }

    #[test]
    fn whitespace_kept_when_requested() {
        let evs: Vec<_> = SaxParser::new("<a> <b/></a>")
            .keep_whitespace(true)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert!(matches!(&evs[1], SaxEvent::Text(t) if t == " "));
    }

    #[test]
    fn xml_decl_comments_doctype_skipped() {
        let input = "<?xml version=\"1.0\"?><!DOCTYPE plays [<!ELEMENT a (b)>]><!-- c --><a>x</a>";
        assert_eq!(kinds(input), ["+a", "t:x", "-a"]);
    }

    #[test]
    fn cdata_is_verbatim_text() {
        assert_eq!(kinds("<a><![CDATA[1 < 2 & 3]]></a>"), ["+a", "t:1 < 2 & 3", "-a"]);
    }

    #[test]
    fn entities_in_text() {
        assert_eq!(kinds("<a>R&amp;D &#65;</a>"), ["+a", "t:R&D A", "-a"]);
    }

    #[test]
    fn mismatched_end_tag_is_error() {
        let err = SaxParser::new("<a><b></a></b>")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedEndTag { .. }));
    }

    #[test]
    fn unmatched_end_tag_is_error() {
        let err = SaxParser::new("<a></a></b>").collect::<Result<Vec<_>, _>>().unwrap_err();
        // After root closes, `</b>` pops an empty stack.
        assert!(
            matches!(err.kind, ParseErrorKind::UnmatchedEndTag(_)),
            "{err:?}"
        );
    }

    #[test]
    fn unclosed_elements_error() {
        let err = SaxParser::new("<a><b>").collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnclosedElements(2));
    }

    #[test]
    fn multiple_roots_error() {
        let err = SaxParser::new("<a/><b/>").collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MultipleRoots);
    }

    #[test]
    fn empty_input_error() {
        let err = SaxParser::new("   ").collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::NoRootElement);
    }

    #[test]
    fn trailing_text_error() {
        let err = SaxParser::new("<a/>junk").collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TrailingContent);
    }

    #[test]
    fn duplicate_attribute_error() {
        let err = SaxParser::new(r#"<a x="1" x="2"/>"#)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn names_with_punctuation() {
        assert_eq!(kinds("<ns:a-b.c_d/>"), ["+ns:a-b.c_d", "-ns:a-b.c_d"]);
    }

    #[test]
    fn deeply_nested() {
        let depth = 200;
        let mut s = String::new();
        for i in 0..depth {
            s.push_str(&format!("<t{i}>"));
        }
        for i in (0..depth).rev() {
            s.push_str(&format!("</t{i}>"));
        }
        assert_eq!(events(&s).len(), depth * 2);
    }

    #[test]
    fn comment_with_double_dash_is_error() {
        let err = SaxParser::new("<a><!-- x -- y --></a>")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MalformedMarkup("comment"));
    }
}
