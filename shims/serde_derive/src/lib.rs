//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against the
//! vendored `serde` shim's value-tree model, with a hand-rolled token parser
//! (no `syn`/`quote` available offline). Supported shapes — everything this
//! workspace derives on:
//!
//! * structs with named fields;
//! * newtype / tuple structs;
//! * enums with unit, struct and tuple variants (externally tagged, like
//!   upstream serde's default);
//! * `#[serde(skip)]` on a named field: left out when serializing, filled
//!   with `Default::default()` when deserializing.
//!
//! Generics are intentionally unsupported; the derive panics with a clear
//! message rather than generating wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

/// A named field; `skip` marks `#[serde(skip)]` (left out of the value
/// tree, rebuilt with `Default::default()`).
#[derive(Debug)]
struct Field {
    name: String,
    skip: bool,
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Item {
    Struct { name: String, shape: Shape },
    Enum { name: String, variants: Vec<Variant> },
}

/// Skip leading attributes (`#[...]`, including doc comments) and visibility
/// (`pub`, `pub(...)`) at position `i`.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 1; // '#'
                if matches!(tokens.get(i), Some(TokenTree::Group(_))) {
                    i += 1; // '[...]'
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // 'pub(crate)' etc.
                    }
                }
            }
            _ => return i,
        }
    }
}

/// `true` if a field's leading attribute tokens include `#[serde(skip)]`.
fn has_serde_skip(tokens: &[TokenTree]) -> bool {
    tokens.iter().any(|t| {
        let TokenTree::Group(g) = t else { return false };
        let inner: Vec<String> = g.stream().into_iter().map(|t| t.to_string()).collect();
        inner.len() == 2 && inner[0] == "serde" && inner[1] == "(skip)"
    })
}

/// Parse the fields of a braced group: named fields `a: T, b: U, ...`, in
/// declaration order.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs_start = i;
        i = skip_attrs_and_vis(&tokens, i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else { break };
        let skip = has_serde_skip(&tokens[attrs_start..i]);
        fields.push(Field { name: name.to_string(), skip });
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => panic!("serde shim derive: expected ':' after field {name}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Count the fields of a parenthesised (tuple) group by top-level commas.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut fields = 1usize;
    let mut saw_tokens_in_current = false;
    for tok in &tokens {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                saw_tokens_in_current = false;
                continue;
            }
            _ => {}
        }
        saw_tokens_in_current = true;
    }
    if !saw_tokens_in_current {
        fields -= 1; // trailing comma
    }
    fields
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else { break };
        let name = name.to_string();
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(count_tuple_fields(g))
            }
            _ => Shape::Unit,
        };
        variants.push(Variant { name, shape });
        // Skip an optional discriminant and the separating comma.
        while let Some(tok) = tokens.get(i) {
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic types are not supported (deriving on {name})");
    }
    match kind.as_str() {
        "struct" => {
            let shape = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(count_tuple_fields(g))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
                other => panic!("serde shim derive: unsupported struct body for {name}: {other:?}"),
            };
            Item::Struct { name, shape }
        }
        "enum" => {
            let variants = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => parse_variants(g),
                other => panic!("serde shim derive: expected enum body for {name}, got {other:?}"),
            };
            Item::Enum { name, variants }
        }
        other => panic!("serde shim derive: cannot derive on {other} {name}"),
    }
}

fn named_to_object(fields: &[Field], access_prefix: &str) -> String {
    let mut out = String::from("{ let mut __fields: Vec<(String, ::serde::Value)> = Vec::new(); ");
    for f in fields.iter().filter(|f| !f.skip).map(|f| &f.name) {
        out.push_str(&format!(
            "__fields.push(({f:?}.to_string(), ::serde::Serialize::to_value({access_prefix}{f}))); "
        ));
    }
    out.push_str("::serde::Value::Object(__fields) }");
    out
}

fn named_from_object(ty_or_variant: &str, fields: &[Field], ctor: &str) -> String {
    let mut out = format!(
        "{{ let __obj = __v.as_object().ok_or_else(|| ::serde::DeError::new(\
         format!(\"expected object for {ty_or_variant}, got {{__v:?}}\")))?; Ok({ctor} {{ "
    );
    for Field { name: f, skip } in fields {
        if *skip {
            out.push_str(&format!("{f}: ::std::default::Default::default(), "));
            continue;
        }
        out.push_str(&format!(
            "{f}: ::serde::Deserialize::from_value(::serde::value::get_field(__obj, {f:?})\
             .ok_or_else(|| ::serde::DeError::new(\"missing field {ty_or_variant}.{f}\"))?)?, "
        ));
    }
    out.push_str("}) }");
    out
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => "::serde::Value::Null".to_string(),
                Shape::Named(fields) => named_to_object(fields, "&self."),
                Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", items.join(", "))
                }
            };
            format!(
                "impl ::serde::Serialize for {name} {{\
                 fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String({vn:?}.to_string()),"
                    )),
                    Shape::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let binds = names.join(", ");
                        let obj = named_to_object(fields, "");
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![\
                             ({vn:?}.to_string(), {obj})]),"
                        ));
                    }
                    Shape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__x0) => ::serde::Value::Object(vec![\
                         ({vn:?}.to_string(), ::serde::Serialize::to_value(__x0))]),"
                    )),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__x{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Object(vec![({vn:?}.to_string(), \
                             ::serde::Value::Array(vec![{}]))]),",
                            binds.join(", "),
                            items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\
                 fn to_value(&self) -> ::serde::Value {{ match self {{ {arms} }} }} }}"
            )
        }
    };
    code.parse().expect("serde shim derive: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => format!("{{ let _ = __v; Ok({name}) }}"),
                Shape::Named(fields) => named_from_object(name, fields, name),
                Shape::Tuple(1) => {
                    format!("Ok({name}(::serde::Deserialize::from_value(__v)?))")
                }
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                        .collect();
                    format!(
                        "{{ let __items = __v.as_array().ok_or_else(|| ::serde::DeError::new(\
                         \"expected array for {name}\"))?; if __items.len() != {n} {{ \
                         return Err(::serde::DeError::new(\"wrong arity for {name}\")); }} \
                         Ok({name}({})) }}",
                        items.join(", ")
                    )
                }
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\
                 fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::DeError> {{ {body} }} }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("{vn:?} => return Ok({name}::{vn}),"));
                        // Also accept {"Variant": null} for symmetry.
                        tagged_arms.push_str(&format!(
                            "{vn:?} => {{ let _ = __payload; Ok({name}::{vn}) }},"
                        ));
                    }
                    Shape::Named(fields) => {
                        let ctor = format!("{name}::{vn}");
                        let body = named_from_object(&format!("{name}::{vn}"), fields, &ctor);
                        tagged_arms
                            .push_str(&format!("{vn:?} => {{ let __v = __payload; {body} }},"));
                    }
                    Shape::Tuple(1) => tagged_arms.push_str(&format!(
                        "{vn:?} => Ok({name}::{vn}(::serde::Deserialize::from_value(__payload)?)),"
                    )),
                    Shape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{vn:?} => {{ let __items = __payload.as_array().ok_or_else(|| \
                             ::serde::DeError::new(\"expected array for {name}::{vn}\"))?; \
                             if __items.len() != {n} {{ return Err(::serde::DeError::new(\
                             \"wrong arity for {name}::{vn}\")); }} Ok({name}::{vn}({})) }},",
                            items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\
                 fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\
                 if let Some(__s) = __v.as_str() {{ match __s {{ {unit_arms} \
                 __other => return Err(::serde::DeError::new(format!(\
                 \"unknown variant {{__other}} of {name}\"))), }} }} \
                 let __obj = __v.as_object().ok_or_else(|| ::serde::DeError::new(\
                 format!(\"expected enum value for {name}, got {{__v:?}}\")))?; \
                 if __obj.len() != 1 {{ return Err(::serde::DeError::new(\
                 \"expected single-key enum object for {name}\")); }} \
                 let (__tag, __payload) = (&__obj[0].0, &__obj[0].1); \
                 match __tag.as_str() {{ {tagged_arms} \
                 __other => Err(::serde::DeError::new(format!(\
                 \"unknown variant {{__other}} of {name}\"))), }} }} }}"
            )
        }
    };
    code.parse().expect("serde shim derive: generated Deserialize impl must parse")
}
