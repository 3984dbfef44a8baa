//! A small streaming JSON writer.  Reading goes through the parser the
//! experiment gate already has (`grasp_bench::gate::parse_json`).

/// Builds one JSON document; commas are inserted automatically.
#[derive(Debug, Default)]
pub struct JsonOut {
    buf: String,
    /// Whether the next value at the current nesting level needs a comma.
    need_comma: Vec<bool>,
    after_key: bool,
}

impl JsonOut {
    pub fn new() -> Self {
        JsonOut::default()
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.buf.push(',');
            }
            *need = true;
        }
    }

    pub fn begin_obj(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('{');
        self.need_comma.push(false);
        self
    }

    pub fn end_obj(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push('}');
        self
    }

    pub fn begin_arr(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('[');
        self.need_comma.push(false);
        self
    }

    pub fn end_arr(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push(']');
        self
    }

    pub fn key(&mut self, key: &str) -> &mut Self {
        self.before_value();
        self.push_string(key);
        self.buf.push(':');
        self.after_key = true;
        self
    }

    pub fn str(&mut self, value: &str) -> &mut Self {
        self.before_value();
        self.push_string(value);
        self
    }

    /// A number with every digit `f64` carries (Rust prints the shortest
    /// text that parses back to the same value).  JSON has no NaN or
    /// infinity; a non-finite measurement is written as 0.
    pub fn num(&mut self, value: f64) -> &mut Self {
        self.before_value();
        let value = if value.is_finite() { value } else { 0.0 };
        self.buf.push_str(&format!("{value}"));
        self
    }

    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.before_value();
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn nums(&mut self, values: &[f64]) -> &mut Self {
        self.begin_arr();
        for v in values {
            self.num(*v);
        }
        self.end_arr()
    }

    fn push_string(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    pub fn finish(&mut self) -> String {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_bench::gate::{parse_json, Json};

    #[test]
    fn writer_output_parses_back() {
        let mut out = JsonOut::new();
        out.begin_obj();
        out.key("name").str("a \"quoted\"\nline");
        out.key("value").num(0.1 + 0.2);
        out.key("bad").num(f64::NAN);
        out.key("ok").bool(true);
        out.key("list").nums(&[1.0, 2.5]);
        out.key("nested").begin_obj().key("k").num(-3.0).end_obj();
        out.end_obj();
        let doc = parse_json(&out.finish()).unwrap();
        assert_eq!(
            doc.get("name").unwrap().as_str(),
            Some("a \"quoted\"\nline")
        );
        assert_eq!(doc.get("value").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(doc.get("bad").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("list").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            doc.get("nested").unwrap().get("k").unwrap().as_f64(),
            Some(-3.0)
        );
    }
}
