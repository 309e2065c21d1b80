//! A streaming (SAX-style) pull parser for XML documents.
//!
//! The parser covers the subset of XML needed by the XSEED pipeline and
//! the synthetic datasets:
//!
//! * elements with attributes (single- or double-quoted values),
//! * self-closing elements,
//! * character data and CDATA sections,
//! * comments, processing instructions, the XML declaration, and a
//!   DOCTYPE declaration (all skipped or reported but not interpreted),
//! * the five predefined entities (`&amp;`, `&lt;`, `&gt;`, `&apos;`,
//!   `&quot;`) and numeric character references in text and attribute
//!   values.
//!
//! It checks well-formedness: tags must nest properly and the document
//! must have exactly one root element.
//!
//! The design is a *pull* parser: callers repeatedly invoke
//! [`SaxParser::next_event`] and receive [`SaxEvent`]s until [`SaxEvent::Eof`].
//! This mirrors how Algorithm 1 of the paper consumes "opening tag" and
//! "closing tag" events to build the XSEED kernel in a single pass.

use crate::error::{Error, Result};
use std::borrow::Cow;

/// A single attribute on an element start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name as written in the document.
    pub name: &'a str,
    /// Attribute value with entity references resolved: borrowed from
    /// the input unless it contains a `&`.
    pub value: Cow<'a, str>,
}

/// Events produced by [`SaxParser`]. Every name and payload borrows from
/// the parser's input; only text and attribute values that contain an
/// entity reference are decoded into an owned string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent<'a> {
    /// An element start tag (`<name ...>`), or the opening half of a
    /// self-closing tag. For self-closing tags the parser emits
    /// `StartElement` immediately followed by `EndElement`.
    StartElement {
        /// Element name.
        name: &'a str,
        /// Attributes in document order.
        attributes: Vec<Attribute<'a>>,
    },
    /// An element end tag (`</name>`), or the closing half of a
    /// self-closing tag.
    EndElement {
        /// Element name.
        name: &'a str,
    },
    /// Character data between tags, with entities resolved. Whitespace-only
    /// text is still reported; callers that do not care simply ignore it.
    Text(Cow<'a, str>),
    /// A comment (`<!-- ... -->`); the payload excludes the delimiters.
    Comment(&'a str),
    /// A processing instruction (`<?target data?>`), excluding the XML
    /// declaration which is silently skipped.
    ProcessingInstruction {
        /// PI target.
        target: &'a str,
        /// PI data (possibly empty).
        data: &'a str,
    },
    /// End of input. Returned forever once reached.
    Eof,
}

/// Internal parser state: what has been seen at the document level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocState {
    /// Before the root element.
    Prolog,
    /// Inside the root element.
    InRoot,
    /// After the root element closed.
    Epilog,
}

/// A pull parser over a UTF-8 XML string.
///
/// Events borrow from the input, so parsing allocates only for entity
/// decoding, attribute lists, and the open-element stack as it deepens.
/// Every cut the parser makes falls next to an ASCII delimiter, so each
/// slice is valid UTF-8 without a check.
///
/// ```
/// use xmlkit::sax::{SaxParser, SaxEvent};
///
/// let mut p = SaxParser::new("<a><b x='1'/>hi</a>");
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::StartElement { name: "a", .. }));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::StartElement { name: "b", .. }));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::EndElement { name: "b" }));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::Text(t) if t == "hi"));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::EndElement { name: "a" }));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::Eof));
/// ```
#[derive(Debug)]
pub struct SaxParser<'a> {
    input: &'a str,
    pos: usize,
    /// Stack of currently open element names.
    open: Vec<&'a str>,
    /// Pending end-element produced by a self-closing tag.
    pending_end: Option<&'a str>,
    state: DocState,
    eof_reported: bool,
}

impl<'a> SaxParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        SaxParser {
            input,
            pos: 0,
            open: Vec::new(),
            pending_end: None,
            state: DocState::Prolog,
            eof_reported: false,
        }
    }

    /// Current byte offset into the input (useful for error reporting).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Returns the next event, or an error if the document is malformed.
    ///
    /// After [`SaxEvent::Eof`] has been returned it will be returned again
    /// on every subsequent call.
    pub fn next_event(&mut self) -> Result<SaxEvent<'a>> {
        if let Some(name) = self.pending_end.take() {
            self.pop_open(name)?;
            return Ok(SaxEvent::EndElement { name });
        }
        loop {
            if self.pos >= self.input.len() {
                return self.handle_eof();
            }
            if self.peek() == b'<' {
                return self.parse_markup();
            }
            // Character data, up to the next '<' or the end of input.
            let start = self.pos;
            self.pos = self.input[start..]
                .find('<')
                .map_or(self.input.len(), |i| start + i);
            let text = decode_entities(&self.input[start..self.pos]);
            match self.state {
                DocState::InRoot => return Ok(SaxEvent::Text(text)),
                _ => {
                    // Whitespace outside the root is allowed; anything else
                    // is a well-formedness error.
                    if text.trim().is_empty() {
                        continue;
                    }
                    return Err(Error::Syntax {
                        message: "character data outside the root element".into(),
                        offset: start,
                    });
                }
            }
        }
    }

    /// Convenience: parse the entire input, collecting every event except
    /// `Eof` into a vector.
    pub fn collect_events(mut self) -> Result<Vec<SaxEvent<'a>>> {
        let mut out = Vec::new();
        loop {
            let evt = self.next_event()?;
            if evt == SaxEvent::Eof {
                return Ok(out);
            }
            out.push(evt);
        }
    }

    fn handle_eof(&mut self) -> Result<SaxEvent<'a>> {
        if !self.open.is_empty() {
            return Err(Error::UnexpectedEof {
                open_elements: self.open.iter().map(|name| name.to_string()).collect(),
            });
        }
        if self.state == DocState::Prolog && !self.eof_reported {
            return Err(Error::EmptyDocument);
        }
        self.eof_reported = true;
        Ok(SaxEvent::Eof)
    }

    #[inline]
    fn peek(&self) -> u8 {
        self.input.as_bytes()[self.pos]
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s)
    }

    /// Finds `delimiter` at or after byte `from` (a char boundary),
    /// returning its absolute byte offset.
    fn find_from(&self, from: usize, delimiter: &str) -> Option<usize> {
        self.input[from..].find(delimiter).map(|i| from + i)
    }

    fn parse_markup(&mut self) -> Result<SaxEvent<'a>> {
        debug_assert_eq!(self.peek(), b'<');
        match self.input.as_bytes().get(self.pos + 1) {
            Some(b'/') => self.parse_end_tag(),
            Some(b'?') => self.parse_pi(),
            Some(b'!') if self.starts_with(b"<!--") => self.parse_comment(),
            Some(b'!') if self.starts_with(b"<![CDATA[") => self.parse_cdata(),
            Some(b'!') if self.starts_with(b"<!DOCTYPE") || self.starts_with(b"<!doctype") => {
                self.skip_doctype()?;
                self.next_event()
            }
            _ => self.parse_start_tag(),
        }
    }

    fn parse_comment(&mut self) -> Result<SaxEvent<'a>> {
        let start = self.pos;
        self.pos += 4; // "<!--"
        if let Some(end) = self.find_from(self.pos, "-->") {
            let body = &self.input[self.pos..end];
            self.pos = end + 3;
            Ok(SaxEvent::Comment(body))
        } else {
            Err(Error::Syntax {
                message: "unterminated comment".into(),
                offset: start,
            })
        }
    }

    fn parse_cdata(&mut self) -> Result<SaxEvent<'a>> {
        let start = self.pos;
        self.pos += 9; // "<![CDATA["
        if let Some(end) = self.find_from(self.pos, "]]>") {
            let body = &self.input[self.pos..end];
            self.pos = end + 3;
            if self.state != DocState::InRoot {
                return Err(Error::Syntax {
                    message: "CDATA outside the root element".into(),
                    offset: start,
                });
            }
            Ok(SaxEvent::Text(Cow::Borrowed(body)))
        } else {
            Err(Error::Syntax {
                message: "unterminated CDATA section".into(),
                offset: start,
            })
        }
    }

    fn skip_doctype(&mut self) -> Result<()> {
        // A DOCTYPE may contain an internal subset in brackets; skip to the
        // matching '>' while tracking bracket depth.
        let start = self.pos;
        let mut depth = 0usize;
        while self.pos < self.input.len() {
            match self.peek() {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(Error::Syntax {
            message: "unterminated DOCTYPE declaration".into(),
            offset: start,
        })
    }

    fn parse_pi(&mut self) -> Result<SaxEvent<'a>> {
        let start = self.pos;
        self.pos += 2; // "<?"
        let end = self
            .find_from(self.pos, "?>")
            .ok_or_else(|| Error::Syntax {
                message: "unterminated processing instruction".into(),
                offset: start,
            })?;
        let body = self.input[self.pos..end].trim();
        self.pos = end + 2;
        let (target, data) = match body.find(char::is_whitespace) {
            Some(i) => (&body[..i], body[i..].trim_start()),
            None => (body, ""),
        };
        if target.eq_ignore_ascii_case("xml") {
            // XML declaration: skip entirely.
            return self.next_event();
        }
        Ok(SaxEvent::ProcessingInstruction { target, data })
    }

    fn parse_end_tag(&mut self) -> Result<SaxEvent<'a>> {
        let start = self.pos;
        self.pos += 2; // "</"
        let name = self.read_name()?;
        self.skip_whitespace();
        if self.pos >= self.input.len() || self.peek() != b'>' {
            return Err(Error::Syntax {
                message: format!("malformed closing tag </{name}"),
                offset: start,
            });
        }
        self.pos += 1;
        self.pop_open(name)?;
        Ok(SaxEvent::EndElement { name })
    }

    fn parse_start_tag(&mut self) -> Result<SaxEvent<'a>> {
        let start = self.pos;
        self.pos += 1; // "<"
        let name = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            if self.pos >= self.input.len() {
                return Err(Error::Syntax {
                    message: format!("unterminated start tag <{name}"),
                    offset: start,
                });
            }
            match self.peek() {
                b'>' => {
                    self.pos += 1;
                    self.push_open(name, start)?;
                    return Ok(SaxEvent::StartElement { name, attributes });
                }
                b'/' => {
                    if !self.starts_with(b"/>") {
                        return Err(Error::Syntax {
                            message: "expected '/>'".into(),
                            offset: self.pos,
                        });
                    }
                    self.pos += 2;
                    self.push_open(name, start)?;
                    self.pending_end = Some(name);
                    return Ok(SaxEvent::StartElement { name, attributes });
                }
                _ => {
                    let attr = self.read_attribute()?;
                    attributes.push(attr);
                }
            }
        }
    }

    fn read_attribute(&mut self) -> Result<Attribute<'a>> {
        let name = self.read_name()?;
        self.skip_whitespace();
        if self.pos >= self.input.len() || self.peek() != b'=' {
            return Err(Error::Syntax {
                message: format!("attribute '{name}' missing '='"),
                offset: self.pos,
            });
        }
        self.pos += 1;
        self.skip_whitespace();
        if self.pos >= self.input.len() {
            return Err(Error::Syntax {
                message: "unterminated attribute value".into(),
                offset: self.pos,
            });
        }
        let quote = self.peek();
        if quote != b'"' && quote != b'\'' {
            return Err(Error::Syntax {
                message: "attribute value must be quoted".into(),
                offset: self.pos,
            });
        }
        self.pos += 1;
        let start = self.pos;
        let quote = if quote == b'"' { "\"" } else { "'" };
        let Some(end) = self.find_from(start, quote) else {
            self.pos = self.input.len();
            return Err(Error::Syntax {
                message: "unterminated attribute value".into(),
                offset: start,
            });
        };
        self.pos = end + 1; // past the closing quote
        Ok(Attribute {
            name,
            value: decode_entities(&self.input[start..end]),
        })
    }

    fn read_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() && is_name_byte(bytes[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(Error::Syntax {
                message: "expected a name".into(),
                offset: start,
            });
        }
        Ok(&self.input[start..self.pos])
    }

    fn skip_whitespace(&mut self) {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn push_open(&mut self, name: &'a str, offset: usize) -> Result<()> {
        match self.state {
            DocState::Prolog => {
                self.state = DocState::InRoot;
            }
            DocState::InRoot => {}
            DocState::Epilog => {
                return Err(Error::MultipleRoots { offset });
            }
        }
        self.open.push(name);
        Ok(())
    }

    fn pop_open(&mut self, name: &str) -> Result<()> {
        match self.open.pop() {
            Some(expected) if expected == name => {
                if self.open.is_empty() {
                    self.state = DocState::Epilog;
                }
                Ok(())
            }
            Some(expected) => Err(Error::MismatchedTag {
                expected: expected.to_string(),
                found: name.to_string(),
                offset: self.pos,
            }),
            None => Err(Error::Syntax {
                message: format!("closing tag </{name}> without matching start tag"),
                offset: self.pos,
            }),
        }
    }
}

/// Returns true for bytes allowed in (our subset of) XML names. All are
/// ASCII, so a name ends on a char boundary.
#[inline]
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

/// Resolves the predefined entities and numeric character references in
/// `raw`, borrowing it unchanged when it contains no `&`. Unknown entities
/// are passed through unchanged, which is the lenient behaviour we want
/// for synthetic data.
pub fn decode_entities(raw: &str) -> Cow<'_, str> {
    if !raw.contains('&') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        if let Some(semi) = tail.find(';') {
            let entity = &tail[1..semi];
            let decoded = match entity {
                "amp" => Some('&'),
                "lt" => Some('<'),
                "gt" => Some('>'),
                "apos" => Some('\''),
                "quot" => Some('"'),
                _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                    u32::from_str_radix(&entity[2..], 16)
                        .ok()
                        .and_then(char::from_u32)
                }
                _ if entity.starts_with('#') => {
                    entity[1..].parse::<u32>().ok().and_then(char::from_u32)
                }
                _ => None,
            };
            match decoded {
                Some(c) => {
                    out.push(c);
                    rest = &tail[semi + 1..];
                }
                None => {
                    // Unknown entity: emit literally and continue after '&'.
                    out.push('&');
                    rest = &tail[1..];
                }
            }
        } else {
            out.push('&');
            rest = &tail[1..];
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Escapes the characters that must be escaped in XML text content.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes the characters that must be escaped inside a double-quoted
/// attribute value.
pub fn escape_attr(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(s: &str) -> Vec<SaxEvent<'_>> {
        SaxParser::new(s).collect_events().unwrap()
    }

    #[test]
    fn simple_document() {
        let evts = events("<a><b></b></a>");
        assert_eq!(evts.len(), 4);
        assert!(matches!(&evts[0], SaxEvent::StartElement { name: "a", .. }));
        assert!(matches!(&evts[3], SaxEvent::EndElement { name: "a" }));
    }

    #[test]
    fn self_closing_emits_both_events() {
        let evts = events("<a><b/></a>");
        assert!(matches!(&evts[1], SaxEvent::StartElement { name: "b", .. }));
        assert!(matches!(&evts[2], SaxEvent::EndElement { name: "b" }));
    }

    #[test]
    fn attributes_both_quote_styles() {
        let evts = events(r#"<a x="1" y='two'/>"#);
        match &evts[0] {
            SaxEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0].name, "x");
                assert_eq!(attributes[0].value, "1");
                assert_eq!(attributes[1].value, "two");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_and_entities() {
        let evts = events("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>");
        match &evts[1] {
            SaxEvent::Text(t) => assert_eq!(t, "x & y <z> AB"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn events_borrow_unless_an_entity_is_decoded() {
        let evts = events("<a x='1' y='&lt;'>plain<b/>&amp;</a>");
        match &evts[0] {
            SaxEvent::StartElement { attributes, .. } => {
                assert!(matches!(attributes[0].value, Cow::Borrowed("1")));
                assert!(matches!(&attributes[1].value, Cow::Owned(v) if v == "<"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(evts[1], SaxEvent::Text(Cow::Borrowed("plain"))));
        assert!(matches!(&evts[4], SaxEvent::Text(Cow::Owned(t)) if t == "&"));
    }

    #[test]
    fn cdata_is_text() {
        let evts = events("<a><![CDATA[<raw> & stuff]]></a>");
        match &evts[1] {
            SaxEvent::Text(t) => assert_eq!(t, "<raw> & stuff"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_pis() {
        let evts = events("<?xml version=\"1.0\"?><!-- hello --><a><?target data?></a>");
        assert!(matches!(&evts[0], SaxEvent::Comment(c) if c.trim() == "hello"));
        assert!(matches!(
            &evts[2],
            SaxEvent::ProcessingInstruction {
                target: "target",
                data: "data"
            }
        ));
    }

    #[test]
    fn doctype_is_skipped() {
        let evts = events("<!DOCTYPE article [ <!ELEMENT article (#PCDATA)> ]><article/>");
        assert!(matches!(
            &evts[0],
            SaxEvent::StartElement {
                name: "article",
                ..
            }
        ));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = SaxParser::new("<a><b></a></b>")
            .collect_events()
            .unwrap_err();
        assert!(matches!(err, Error::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_error() {
        let err = SaxParser::new("<a><b>").collect_events().unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { open_elements } if open_elements.len() == 2));
    }

    #[test]
    fn multiple_roots_error() {
        let err = SaxParser::new("<a/><b/>").collect_events().unwrap_err();
        assert!(matches!(err, Error::MultipleRoots { .. }));
    }

    #[test]
    fn empty_document_error() {
        let err = SaxParser::new("   ").collect_events().unwrap_err();
        assert_eq!(err, Error::EmptyDocument);
        let err = SaxParser::new("").collect_events().unwrap_err();
        assert_eq!(err, Error::EmptyDocument);
    }

    #[test]
    fn text_outside_root_is_error() {
        let err = SaxParser::new("hello<a/>").collect_events().unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn eof_is_sticky() {
        let mut p = SaxParser::new("<a/>");
        while p.next_event().unwrap() != SaxEvent::Eof {}
        assert_eq!(p.next_event().unwrap(), SaxEvent::Eof);
        assert_eq!(p.next_event().unwrap(), SaxEvent::Eof);
    }

    #[test]
    fn unknown_entity_passes_through() {
        assert_eq!(decode_entities("a &unknown; b"), "a &unknown; b");
        assert_eq!(decode_entities("trailing &"), "trailing &");
    }

    #[test]
    fn escape_roundtrip() {
        let original = "a < b & c > d";
        assert_eq!(decode_entities(&escape_text(original)), original);
        let attr = "say \"hi\" & <bye>";
        assert_eq!(decode_entities(&escape_attr(attr)), attr);
    }

    #[test]
    fn depth_tracking() {
        let mut p = SaxParser::new("<a><b><c/></b></a>");
        p.next_event().unwrap();
        assert_eq!(p.depth(), 1);
        p.next_event().unwrap();
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn malformed_closing_tag() {
        let err = SaxParser::new("<a></a junk>").collect_events().unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn attribute_missing_equals() {
        let err = SaxParser::new("<a attr></a>").collect_events().unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn unquoted_attribute_is_error() {
        let err = SaxParser::new("<a attr=1></a>")
            .collect_events()
            .unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn deeply_nested_document() {
        let depth = 200;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<n>");
        }
        for _ in 0..depth {
            s.push_str("</n>");
        }
        let evts = events(&s);
        assert_eq!(evts.len(), depth * 2);
    }
}
