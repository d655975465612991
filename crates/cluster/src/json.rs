//! The one JSON writer of the fleet export ([`crate::FleetMetrics::to_json`]):
//! callers list members; it writes each with its separator, indented or
//! inline, and closing a container takes the last separator back.

use std::fmt::{self, Display, Write};
use std::iter::repeat_n;

/// The members of one object or array being written: one per line at
/// the given nesting depth, or all on one line (`None`).
pub(crate) struct Members(pub(crate) String, pub(crate) Option<usize>);

/// An object or array whose members `body` writes, opened on a line at
/// nesting `depth` (`None`: inside a one-line container). `brackets`
/// `"{}"` or `"[]"` keep the members on one line, `"{\n}"` or `"[\n]"`
/// put each on its own line (only inside lines).
pub(crate) fn container(
    depth: Option<usize>,
    brackets: &str,
    body: impl FnOnce(&mut Members),
) -> String {
    let (open, close) = brackets.split_at(brackets.len() - 1);
    let depth = depth.filter(|_| open.ends_with('\n')).map(|d| d + 1);
    let mut members = Members(open.into(), depth);
    body(&mut members);
    let mut out = members.0;
    // Take back the last separator, and an empty container's newline.
    out.truncate(out.trim_end().trim_end_matches(',').len());
    if let Some(depth) = depth {
        out.push('\n');
        out.extend(repeat_n("  ", depth - 1));
    }
    out + close
}

impl Members {
    /// An object member `"key": v`.
    pub(crate) fn field(&mut self, key: &str, v: impl Display) -> &mut Self {
        self.member(format_args!("{}: {v}", Str(key)))
    }

    /// A number member with `precision` decimals.
    pub(crate) fn fixed(&mut self, key: &str, v: f64, precision: usize) -> &mut Self {
        self.field(key, format_args!("{v:.precision$}"))
    }

    /// One member (an object's carries its key in `v`) and its separator.
    fn member(&mut self, v: impl Display) -> &mut Self {
        let (depth, sep) = self.1.map_or((0, ", "), |d| (d, ",\n"));
        self.0.extend(repeat_n("  ", depth));
        write!(self.0, "{v}{sep}").expect("writing to a String cannot fail");
        self
    }

    /// Array elements.
    pub(crate) fn items(&mut self, items: impl IntoIterator<Item = impl Display>) {
        for v in items {
            self.member(v);
        }
    }

    /// A member holding a [`container`].
    pub(crate) fn nest(
        &mut self,
        key: &str,
        brackets: &str,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.field(key, container(self.1, brackets, body))
    }
}

/// Writes each listed field of `$owner` as the member `"field": value`.
macro_rules! fields {
    ($o:ident, $owner:expr; $($field:ident),+) => {
        $($o.field(stringify!($field), $owner.$field);)+
    };
}
pub(crate) use fields;

/// A JSON string value: quoted, `"`, `\` and control characters escaped.
pub(crate) struct Str<'a>(pub(crate) &'a str);

impl Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' | '\\' | '\n' | '\r' | '\t' => write!(f, "{}", c.escape_default())?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}
