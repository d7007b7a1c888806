package server

// The three request decoders every endpoint reads its input through: the
// strict JSON body decoder, the query-string decoder (which fills the same
// request structs from their json tags), and the NDJSON line scanner the
// batch and mutate bodies share.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
)

// maxBodyBytes caps every request body the decoders read.
const maxBodyBytes = 16 << 20

// decodeJSON strictly decodes one JSON value from src into v: unknown
// fields are errors, so a typo is a 400 rather than a silently ignored
// knob.
func decodeJSON(src io.Reader, v any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeBody decodes the size-capped JSON request body into v, answering
// a malformed body with 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// decodeQuery fills the struct v points to from the URL query string,
// matching parameters to the fields' json tags, and answers a malformed
// value with 400 as "invalid <name>=<value>: <reason>". NaN and ±Inf are
// malformed for every float parameter. Parameters with no matching field
// (debug=trace, say) are ignored, as are fields of a kind the query
// string cannot carry (slices).
func decodeQuery(w http.ResponseWriter, r *http.Request, v any) bool {
	q := r.URL.Query()
	rv := reflect.ValueOf(v).Elem()
	for i := range rv.NumField() {
		name, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
		raw := q.Get(name)
		if name == "" || raw == "" {
			continue
		}
		if err := setParam(rv.Field(i), raw); err != nil {
			writeError(w, http.StatusBadRequest, "invalid %s=%q: %v", name, raw, err)
			return false
		}
	}
	return true
}

// setParam parses raw into v by v's kind; a pointer field is allocated,
// so a handler can tell an absent parameter from a zero one.
func setParam(v reflect.Value, raw string) error {
	switch v.Kind() {
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if err := setParam(p.Elem(), raw); err != nil {
			return err
		}
		v.Set(p)
	case reflect.String:
		v.SetString(raw)
	case reflect.Bool:
		b, err := strconv.ParseBool(raw)
		v.SetBool(b)
		return err
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(raw, 10, v.Type().Bits())
		v.SetInt(n)
		return err
	case reflect.Uint64:
		n, err := strconv.ParseUint(raw, 10, 64)
		v.SetUint(n)
		return err
	case reflect.Float64:
		x, err := strconv.ParseFloat(raw, 64)
		if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
			err = errors.New("not a finite number")
		}
		v.SetFloat(x)
		return err
	}
	return nil
}

// eachLine is the NDJSON scanner: it feeds fn every non-blank line of the
// size-capped request body, stopping at fn's first error and returning it.
func eachLine(w http.ResponseWriter, r *http.Request, fn func(line []byte) error) error {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	sc.Buffer(make([]byte, 0, 64<<10), maxBodyBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading ndjson body: %w", err)
	}
	return nil
}
