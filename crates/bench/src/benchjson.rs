//! The light JSON report contract `corpus diff` checks before writing its
//! `cb-corpus-diff/v1` report: a schema tag, a non-empty rows array and a
//! `summary` object.

use cb_harness::json::Json;

/// Validates the report contract: the schema tag matches, the rows key
/// holds a non-empty array, and `summary` is an object.
pub fn validate_schema_and_rows(json: &Json, schema: &str, rows_key: &str) -> Result<(), String> {
    match json.get("schema").and_then(Json::as_str) {
        Some(s) if s == schema => {}
        Some(s) => return Err(format!("schema is '{s}', want '{schema}'")),
        None => return Err("missing 'schema'".to_string()),
    }
    match json.get(rows_key).and_then(Json::as_array) {
        Some(rows) if !rows.is_empty() => {}
        Some(_) => return Err(format!("'{rows_key}' is empty")),
        None => return Err(format!("missing rows array '{rows_key}'")),
    }
    match json.get("summary") {
        Some(Json::Obj(_)) => Ok(()),
        Some(_) => Err("'summary' is not an object".to_string()),
        None => Err("missing 'summary'".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj()
            .with("schema", "cb-demo/v1")
            .with("rows", Json::Arr(vec![Json::obj().with("widgets", 3u64)]))
            .with("summary", Json::obj().with("total", 3u64))
    }

    #[test]
    fn validator_rejects_each_missing_piece() {
        validate_schema_and_rows(&sample(), "cb-demo/v1", "rows").expect("valid");
        assert!(validate_schema_and_rows(&sample(), "cb-demo/v2", "rows").is_err());
        assert!(validate_schema_and_rows(&sample(), "cb-demo/v1", "sizes").is_err());
        let empty_rows = sample().with("rows", Json::Arr(vec![]));
        assert!(validate_schema_and_rows(&empty_rows, "cb-demo/v1", "rows").is_err());
        let no_summary = Json::obj()
            .with("schema", "cb-demo/v1")
            .with("rows", Json::Arr(vec![Json::Null]));
        assert!(validate_schema_and_rows(&no_summary, "cb-demo/v1", "rows").is_err());
    }
}
