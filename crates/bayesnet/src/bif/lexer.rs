//! Tokenizer for the BIF format.
//!
//! One pass over the bytes, on demand: the parser pulls one token at a
//! time and each word borrows a slice of the input. A 256-entry byte-class
//! table drives the scan; bytes ≥ 0x80 decode their `char`, so Unicode
//! whitespace (`char::is_whitespace`) still separates words.

use std::fmt;

/// A lexical token with its source line (1-based) for error messages.
/// A quoted word carries the line its closing quote is on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'a> {
    /// What kind of token.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: usize,
}

/// Token kinds. BIF state names may be numeric or contain punctuation-ish
/// characters (`<5`, `0-10`), so everything that is not a delimiter is a
/// single `Word`; the parser decides when a word must parse as a number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'a> {
    /// Bare or quoted word (identifier, state name, or number); a quoted
    /// word is the text between its quotes.
    Word(&'a str),
    /// One of `{ } ( ) [ ] ; , |`.
    Punct(u8),
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Word(w) => f.write_str(w),
            TokenKind::Punct(c) => write!(f, "{}", *c as char),
        }
    }
}

/// Lexer failure.
#[derive(Debug, Clone, PartialEq)]
pub enum LexError {
    /// A `/* ... */` comment was never closed.
    UnterminatedComment {
        /// Line the comment started on.
        line: usize,
    },
    /// A quoted string was never closed.
    UnterminatedString {
        /// Line the string started on.
        line: usize,
    },
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnterminatedComment { line } => {
                write!(f, "unterminated block comment starting on line {line}")
            }
            LexError::UnterminatedString { line } => {
                write!(f, "unterminated quoted string starting on line {line}")
            }
        }
    }
}

impl std::error::Error for LexError {}

/// Byte classes for the scanner's dispatch table.
/// Any other ASCII byte: part of a bare word.
const C_WORD: u8 = 0;
/// ASCII whitespace other than `\n` (`\t`, `\x0B`, `\x0C`, `\r`, ` `).
const C_WS: u8 = 1;
/// `\n`: whitespace that ends a line.
const C_NL: u8 = 2;
/// One of `{ } ( ) [ ] ; , |`.
const C_PUNCT: u8 = 3;
/// `"`.
const C_QUOTE: u8 = 4;
/// `/`: a comment opener when followed by `/` or `*` at a token start,
/// a word byte otherwise.
const C_SLASH: u8 = 5;
/// A byte ≥ 0x80: its `char` decides between whitespace and word.
const C_HIGH: u8 = 6;

static CLASS: [u8; 256] = build_class_table();

const fn build_class_table() -> [u8; 256] {
    let mut table = [C_WORD; 256];
    let mut b = 0usize;
    while b < 256 {
        table[b] = match b as u8 {
            b'\t' | 0x0B | 0x0C | b'\r' | b' ' => C_WS,
            b'\n' => C_NL,
            b'{' | b'}' | b'(' | b')' | b'[' | b']' | b';' | b',' | b'|' => C_PUNCT,
            b'"' => C_QUOTE,
            b'/' => C_SLASH,
            0x80.. => C_HIGH,
            _ => C_WORD,
        };
        b += 1;
    }
    table
}

/// The `char` starting at byte `at` of `text` (a char boundary).
fn char_at(text: &str, at: usize) -> char {
    text[at..].chars().next().expect("in bounds")
}

/// Byte length of the bare word starting at `start` of `text`: it runs
/// until whitespace, a delimiter or a quote.
fn bare_word_len(text: &str, start: usize) -> usize {
    let bytes = text.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match CLASS[bytes[i] as usize] {
            C_WORD | C_SLASH => i += 1,
            C_HIGH => {
                let c = char_at(text, i);
                if c.is_whitespace() {
                    break;
                }
                i += c.len_utf8();
            }
            _ => break,
        }
    }
    i - start
}

/// True if `word` reads back as this one bare word: non-empty, no
/// whitespace, delimiter or quote, and no comment opener at its start.
pub(crate) fn is_bare_word(word: &str) -> bool {
    !word.is_empty()
        && !word.starts_with("//")
        && !word.starts_with("/*")
        && bare_word_len(word, 0) == word.len()
}

/// An on-demand scanner over BIF text.
pub(crate) struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Lexer {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// The next token, `None` at the end of the input.
    pub(crate) fn next_token(&mut self) -> Result<Option<Token<'a>>, LexError> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match CLASS[b as usize] {
                C_NL => {
                    self.line += 1;
                    self.pos += 1;
                }
                C_WS => self.pos += 1,
                C_PUNCT => {
                    self.pos += 1;
                    return Ok(Some(self.token(TokenKind::Punct(b))));
                }
                C_QUOTE => return self.quoted().map(Some),
                C_SLASH => match bytes.get(self.pos + 1) {
                    Some(b'/') => self.skip_line_comment(),
                    Some(b'*') => self.skip_block_comment()?,
                    _ => return Ok(Some(self.bare_word())),
                },
                C_HIGH => {
                    let c = char_at(self.text, self.pos);
                    if !c.is_whitespace() {
                        return Ok(Some(self.bare_word()));
                    }
                    self.pos += c.len_utf8();
                }
                _ => return Ok(Some(self.bare_word())),
            }
        }
        Ok(None)
    }

    /// Lexes the rest of the input and returns its first error, if any.
    /// A parse error defers to this, so a lex error anywhere in the file
    /// is reported first, as if the whole file were tokenized up front.
    pub(crate) fn first_error(&mut self) -> Option<LexError> {
        loop {
            match self.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }

    fn token(&self, kind: TokenKind<'a>) -> Token<'a> {
        Token {
            kind,
            line: self.line,
        }
    }

    fn bare_word(&mut self) -> Token<'a> {
        let start = self.pos;
        self.pos += bare_word_len(self.text, start);
        self.token(TokenKind::Word(&self.text[start..self.pos]))
    }

    /// Counts the newlines of `self.text[from..to]` into the line number.
    fn count_lines(&mut self, from: usize, to: usize) {
        self.line += self.text.as_bytes()[from..to]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
    }

    /// `"…"`: the word between the quotes, which may span lines.
    fn quoted(&mut self) -> Result<Token<'a>, LexError> {
        let start = self.pos + 1;
        let Some(len) = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"')
        else {
            return Err(LexError::UnterminatedString { line: self.line });
        };
        let end = start + len;
        self.count_lines(start, end);
        self.pos = end + 1;
        Ok(self.token(TokenKind::Word(&self.text[start..end])))
    }

    /// `// …`: up to and including the next newline.
    fn skip_line_comment(&mut self) {
        let bytes = self.text.as_bytes();
        match bytes[self.pos..].iter().position(|&b| b == b'\n') {
            Some(len) => {
                self.pos += len + 1;
                self.line += 1;
            }
            None => self.pos = bytes.len(),
        }
    }

    /// `/* … */`: the `*` of the closer cannot be the opener's.
    fn skip_block_comment(&mut self) -> Result<(), LexError> {
        let body = self.pos + 2;
        let Some(len) = self.text.as_bytes()[body..]
            .windows(2)
            .position(|w| w == b"*/")
        else {
            return Err(LexError::UnterminatedComment { line: self.line });
        };
        self.count_lines(body, body + len);
        self.pos = body + len + 2;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(input: &str) -> Result<Vec<Token<'_>>, LexError> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        while let Some(tok) = lexer.next_token()? {
            tokens.push(tok);
        }
        Ok(tokens)
    }

    fn words(input: &str) -> Vec<String> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind.to_string())
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(words("network asia { }"), vec!["network", "asia", "{", "}"]);
    }

    #[test]
    fn numbers_and_punctuation() {
        assert_eq!(
            words("table 0.5, 0.5;"),
            vec!["table", "0.5", ",", "0.5", ";"]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            words("a // comment\nb /* multi\nline */ c"),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn quoted_words_preserve_spaces() {
        assert_eq!(words("\"hello world\" x"), vec!["hello world", "x"]);
    }

    #[test]
    fn weird_state_names_lex_as_words() {
        assert_eq!(words("<5 0-10 x_y.z"), vec!["<5", "0-10", "x_y.z"]);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = tokenize("a\nb\n\nc").unwrap();
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn unterminated_comment_errors() {
        assert_eq!(
            tokenize("x /* never closed").unwrap_err(),
            LexError::UnterminatedComment { line: 1 }
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert_eq!(
            tokenize("\"open").unwrap_err(),
            LexError::UnterminatedString { line: 1 }
        );
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n\t ").unwrap().is_empty());
    }

    #[test]
    fn unicode_whitespace_separates_words() {
        // NBSP, em space, line separator, vertical tab; `é` and `→` are
        // word characters.
        assert_eq!(
            words("a\u{a0}b\u{2003}c\u{2028}d\x0be é→x"),
            vec!["a", "b", "c", "d", "e", "é→x"]
        );
    }

    #[test]
    fn slashes_inside_words_and_comment_edges() {
        // A `/` opens a comment only at a token start; `/*/` does not
        // close itself; a comment at end of input needs no newline.
        assert_eq!(words("a/b /x a//b /"), vec!["a/b", "/x", "a//b", "/"]);
        assert_eq!(words("p /*/ q */ r // tail"), vec!["p", "r"]);
        assert_eq!(
            tokenize("/*/").unwrap_err(),
            LexError::UnterminatedComment { line: 1 }
        );
    }

    #[test]
    fn quoted_and_commented_lines() {
        // A quoted word carries the line of its closing quote; newlines
        // inside comments and quotes count.
        let toks = tokenize("\"a\nb\" /* x\n\n */ c\n\"\" d").unwrap();
        let got: Vec<(String, usize)> = toks.iter().map(|t| (t.kind.to_string(), t.line)).collect();
        let want = [("a\nb", 2), ("c", 4), ("", 5), ("d", 5)];
        assert_eq!(got, want.map(|(w, l)| (w.to_string(), l)));
        assert_eq!(
            tokenize("x\n\n\"open\n").unwrap_err(),
            LexError::UnterminatedString { line: 3 }
        );
    }

    #[test]
    fn bare_words_are_recognised() {
        for w in ["plain", "<5", "0-10", "a/b", "é", "/x"] {
            assert!(is_bare_word(w), "{w}");
        }
        for w in ["", "has space", "a,b", "q\"", "//x", "/*x", "nb\u{a0}sp"] {
            assert!(!is_bare_word(w), "{w}");
        }
    }
}
