package server

// Wire-contract tests for the hand-rolled /v1/rate JSON codec: golden
// bytes pinning the response encoding, a re-encode property proving
// the encoder is byte-identical to encoding/json's MarshalIndent, and
// a fuzz target proving the pooled decoder never panics and agrees
// with encoding/json on every input.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
)

// serveRateJSON runs the pooled path directly (below net/http) and
// returns the response bytes, copied out of the scratch.
func serveRateJSON(t *testing.T, body string) []byte {
	t.Helper()
	s := New(Options{})
	sc := getRateScratch()
	defer putRateScratch(sc)
	if code, msg := s.serveRate(sc, bytes.NewReader([]byte(body))); code != 0 {
		t.Fatalf("serveRate: %d %s", code, msg)
	}
	return append([]byte(nil), sc.out...)
}

// TestRateResponseGoldenJSON pins the response encoding byte for byte.
// The bytes are exactly what the pre-pooled handler produced with
// json.MarshalIndent(v, "", "  ") + "\n"; any drift here is a breaking
// wire change.
func TestRateResponseGoldenJSON(t *testing.T) {
	goldenMin := "{\n  \"time\": 1.5,\n  \"camera_fpr\": {\n    \"front120\": 1,\n    \"left\": 1,\n    \"right\": 1\n  },\n  \"sum_fpr\": 3,\n  \"max_fpr\": 1,\n  \"rates\": {\n    \"front120\": 1,\n    \"left\": 1,\n    \"right\": 1\n  }\n}\n"
	if got := serveRateJSON(t, `{"time":1.5,"ego":{"id":"ego","speed":20}}`); string(got) != goldenMin {
		t.Errorf("minimal response drifted:\ngot:  %q\nwant: %q", got, goldenMin)
	}

	goldenCheck := "{\n  \"time\": 4.2,\n  \"camera_fpr\": {\n    \"front120\": 30.3030303030303,\n    \"left\": 1,\n    \"right\": 1\n  },\n  \"sum_fpr\": 32.3030303030303,\n  \"max_fpr\": 30.3030303030303,\n  \"rates\": {\n    \"front120\": 30,\n    \"left\": 1,\n    \"right\": 1\n  },\n  \"check\": {\n    \"ok\": false,\n    \"action\": \"emergency-backup\",\n    \"alarms\": [\n      {\n        \"camera\": \"front120\",\n        \"required\": 30.3030303030303,\n        \"operating\": 1\n      }\n    ]\n  }\n}\n"
	body := `{"time":4.2,"ego":{"id":"ego","speed":22},"actors":[{"id":"lead","x":32,"speed":17},{"id":"merge","x":40,"y":-3.5,"speed":13,"heading":0.12,"lat_vel":0.8,"lane":-1}],"operating":{"front120":1,"left":1,"right":1}}`
	if got := serveRateJSON(t, body); string(got) != goldenCheck {
		t.Errorf("check response drifted:\ngot:  %q\nwant: %q", got, goldenCheck)
	}
}

// TestRateResponseMatchesStdlibEncoding is the property behind the
// golden: for randomized scenes, the pooled encoder's bytes must equal
// decoding the response with encoding/json and re-encoding it with
// MarshalIndent — the encoder is bug-compatible with the stdlib, not
// merely similar.
func TestRateResponseMatchesStdlibEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		req := randomRateRequest(rng)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got := serveRateJSON(t, string(body))
		var rr RateResponse
		if err := json.Unmarshal(got, &rr); err != nil {
			t.Fatalf("case %d: response does not parse: %v\n%s", i, err, got)
		}
		std, err := json.MarshalIndent(rr, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		std = append(std, '\n')
		if !bytes.Equal(got, std) {
			t.Fatalf("case %d: encoder diverges from stdlib:\nfast: %q\nstd:  %q", i, got, std)
		}
	}
}

func randomRateRequest(rng *rand.Rand) RateRequest {
	req := RateRequest{
		Time: math.Round(rng.Float64()*1e4) / 1e2,
		Ego:  AgentState{ID: "ego", Speed: rng.Float64() * 35},
	}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		req.Actors = append(req.Actors, AgentState{
			ID:      string(rune('a' + i)),
			X:       rng.Float64()*120 - 20,
			Y:       float64(rng.Intn(3)-1) * 3.5,
			Speed:   rng.Float64() * 35,
			Accel:   rng.Float64()*6 - 4,
			Heading: rng.Float64()*0.4 - 0.2,
			LatVel:  rng.Float64()*2 - 1,
			Lane:    rng.Intn(3) - 1,
		})
	}
	if rng.Intn(2) == 0 {
		req.Operating = map[string]float64{}
		for _, cam := range []string{"front120", "left", "right"} {
			if rng.Intn(2) == 0 {
				req.Operating[cam] = float64(rng.Intn(30) + 1)
			}
		}
		if len(req.Operating) == 0 {
			req.Operating["front120"] = 5
		}
	}
	return req
}

// TestRateDecodeBadRequests pins decoder error behavior at the HTTP
// surface: malformed bodies are 400s with JSON error bodies — exactly
// as the encoding/json-based handler answered them.
func TestRateDecodeBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"empty":           "",
		"truncated":       `{"time":`,
		"array top":       `[1,2]`,
		"bad number":      `{"time":01}`,
		"bad string":      `{"ego":{"id":"a` + "\x01" + `"}}`,
		"float lane":      `{"ego":{"lane":1.5}}`,
		"overflow lane":   `{"ego":{"lane":99999999999999999999}}`,
		"wrong type":      `{"actors":{}}`,
		"unclosed object": `{"operating":{"front120":1`,
	} {
		resp, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// FuzzRateRequestDecode proves the pooled decoder is a drop-in for
// encoding/json: it must never panic on arbitrary bytes, must agree
// with json.Decoder on whether the input is valid, and on valid input
// must produce the identical RateRequest value.
func FuzzRateRequestDecode(f *testing.F) {
	seeds := []string{
		`{"time":1.5,"ego":{"id":"ego","speed":20}}`,
		`{"time":4.2,"ego":{"id":"e"},"actors":[{"id":"a","x":1},{"id":"b","lane":-1,"static":true}],"operating":{"front120":10}}`,
		`null`,
		`{}`,
		`{"TIME":2,"Ego":{"ID":"x"}}`,
		`{"actors":null,"operating":null}`,
		`{"actors":[{"id":"a"}],"actors":[{"x":5}]}`,
		`{"ego":{"id":"\u00e9\ud83d\ude00"},"time":1e-3}`,
		`{"unknown":{"deep":[1,{"k":null},"s"]},"time":3}`,
		`{"time":1.7976931348623157e308}`,
		`{"time":1e999}`,
		`{"time":0.1,"ego":{"lane":9223372036854775807}}`,
		` {"time":2} trailing garbage`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := newRateScratch()
		sc.reset()
		d := rateDecoder{sc: sc, data: data}
		fastErr := d.decodeRequest()

		var want RateRequest
		stdErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if (fastErr == nil) != (stdErr == nil) {
			t.Fatalf("validity disagreement on %q:\nfast: %v\nstd:  %v", data, fastErr, stdErr)
		}
		if stdErr != nil {
			return
		}
		got := RateRequest{
			Time:      sc.req.Time,
			Ego:       sc.req.Ego,
			Actors:    append([]AgentState(nil), sc.req.Actors...),
			Operating: sc.req.Operating,
		}
		// encoding/json leaves never-assigned slices and maps nil where
		// the scratch holds reusable empties; the wire meaning is the
		// same.
		if len(got.Actors) == 0 {
			got.Actors = nil
		}
		if len(want.Actors) == 0 {
			want.Actors = nil
		}
		if len(got.Operating) == 0 {
			got.Operating = nil
		}
		if len(want.Operating) == 0 {
			want.Operating = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode disagreement on %q:\nfast: %+v\nstd:  %+v", data, got, want)
		}
	})
}
