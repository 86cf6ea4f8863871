//! Statement-level tokens. Fortran keywords are *not* reserved at the
//! lexical level; they are ordinary identifiers that the parser
//! interprets by position.

use std::fmt;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword, lower-cased (Fortran is case-insensitive).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal; `is_double` records a `D` exponent or will be set by
    /// `DOUBLE PRECISION` typing during lowering.
    #[allow(missing_docs)]
    Real { value: f64, is_double: bool },
    /// Character literal (quotes stripped, doubled quotes unescaped).
    Str(String),
    /// Logical literals `.TRUE.` / `.FALSE.`.
    Logical(bool),

    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Equals,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `**`
    Pow, // **
    /// `//` (character concatenation)
    Concat, // //
    /// `:`
    Colon,

    // Relational / logical dot-operators.
    /// `.EQ.`
    Eq,
    /// `.NE.`
    Ne,
    /// `.LT.`
    Lt,
    /// `.LE.`
    Le,
    /// `.GT.`
    Gt,
    /// `.GE.`
    Ge,
    /// `.AND.`
    And,
    /// `.OR.`
    Or,
    /// `.NOT.`
    Not,
    /// `.EQV.`
    Eqv,
    /// `.NEQV.`
    Neqv,
}

impl Tok {
    /// Is this token the given keyword? (Keywords are just identifiers.)
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == kw)
    }

    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Real { value, .. } => write!(f, "{value}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::Logical(true) => write!(f, ".true."),
            Tok::Logical(false) => write!(f, ".false."),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::Equals => write!(f, "="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Pow => write!(f, "**"),
            Tok::Concat => write!(f, "//"),
            Tok::Colon => write!(f, ":"),
            Tok::Eq => write!(f, ".eq."),
            Tok::Ne => write!(f, ".ne."),
            Tok::Lt => write!(f, ".lt."),
            Tok::Le => write!(f, ".le."),
            Tok::Gt => write!(f, ".gt."),
            Tok::Ge => write!(f, ".ge."),
            Tok::And => write!(f, ".and."),
            Tok::Or => write!(f, ".or."),
            Tok::Not => write!(f, ".not."),
            Tok::Eqv => write!(f, ".eqv."),
            Tok::Neqv => write!(f, ".neqv."),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_test_is_case_normalized() {
        assert!(Tok::Ident("doall".into()).is_kw("doall"));
        assert!(!Tok::Int(3).is_kw("doall"));
    }

    #[test]
    fn display_round_trips_simple_tokens() {
        assert_eq!(Tok::Pow.to_string(), "**");
        assert_eq!(Tok::Real { value: 1.5, is_double: false }.to_string(), "1.5");
    }
}
